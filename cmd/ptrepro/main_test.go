package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunAllExperiments executes every experiment end to end with short
// traces — the CLI's smoke test.
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI run in long mode only")
	}
	*refsFlag = 20_000
	for _, exp := range []string{
		"table1", "fig9", "fig10", "fig11a", "fig11b", "fig11c", "fig11d",
		"table2", "lines", "sweeps", "residency", "swtlb", "multiprog", "verify",
		"concurrent-lookup", "concurrent-mixed",
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: no output", exp)
		}
	}
}

// TestReplicationGridIdentity holds the replication experiment to its
// acceptance contract: rendered bytes are identical at every -workers.
func TestReplicationGridIdentity(t *testing.T) {
	*refsFlag = 4_000
	*seedFlag = 1
	*csvFlag = false
	var want []byte
	for _, workers := range []int{1, 8, 3, 4, 2} {
		*workersFlag = workers
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, "replication"); err != nil {
			t.Fatalf("-workers=%d: %v", workers, err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("output at -workers=%d diverged from -workers=1", workers)
		}
	}
}

// TestCPUProfileSameBytes runs fig11a with and without -cpuprofile: the
// flag writes a non-empty profile and leaves the rendered bytes alone.
func TestCPUProfileSameBytes(t *testing.T) {
	*refsFlag = 20_000
	*seedFlag = 1
	*csvFlag = false
	*workersFlag = 2
	var plain bytes.Buffer
	if err := run(context.Background(), &plain, "fig11a"); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cpu.out")
	profFlags.CPU = path
	defer func() { profFlags.CPU = "" }()
	var profiled bytes.Buffer
	if err := profFlags.Run(func() error { return run(context.Background(), &profiled, "fig11a") }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(profiled.Bytes(), plain.Bytes()) {
		t.Error("fig11a rendered different bytes under -cpuprofile")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Error("-cpuprofile wrote an empty file")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), &buf, "nope")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error must teach the valid names (derived from the registry).
	for _, want := range []string{"table1", "fig11d", "verify", "valid"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestList(t *testing.T) {
	var buf bytes.Buffer
	list(&buf)
	out := buf.String()
	for _, want := range []string{"table1", "fig9", "sweeps", "verify"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}
