package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden output file")

// goldenRuns are the pinned command lines: one per TLB organization
// path (per-page refill, block prefetch), the multi-level hierarchy and
// the replicated read path. Worker counts vary so the file doubles as a
// determinism check on the engine's cell merge.
var goldenRuns = [][]string{
	{"-w", "gcc", "-table", "clustered", "-tlb", "single", "-workers", "1"},
	{"-w", "coral", "-table", "hashed", "-tlb", "subblock", "-workers", "2"},
	{"-w", "gcc", "-table", "forward", "-tlb", "single", "-mmu", "l2+pwc", "-workers", "2"},
	{"-w", "gcc", "-table", "forward", "-tlb", "single", "-replicas", "2", "-workers", "1"},
}

// setFlags resets every ptsim flag to its default and then applies
// args, so each golden run sees exactly its own command line.
func setFlags(t *testing.T, args []string) {
	t.Helper()
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") || f.Name == "update" {
			return
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatalf("reset -%s: %v", f.Name, err)
		}
	})
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
}

// TestGoldenOutput pins ptsim's report for small-trace runs of every
// miss-service path, so a drifting counter, a reordered cell merge or a
// formatting change shows up as a diff.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/ptsim -run TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range goldenRuns {
		setFlags(t, append([]string{"-refs", "20000"}, args...))
		fmt.Fprintf(&buf, "$ ptsim %s\n", strings.Join(args, " "))
		if err := run(context.Background(), &buf); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		buf.WriteString("\n")
	}

	golden := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output diverged from %s (rerun with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
