package prof

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestRunWritesProfiles checks that each requested profile ends up in
// a non-empty file, that fn's error comes back, and that no flag means
// no file.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	f := Register(fs)
	paths := map[string]string{}
	for _, name := range []string{"cpuprofile", "memprofile", "trace"} {
		paths[name] = filepath.Join(dir, name)
		if err := fs.Set(name, paths[name]); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	sink := 0
	err := f.Run(func() error {
		for i := 0; i < 1_000_000; i++ {
			sink += i * i
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want fn's error", err)
	}
	for name, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("-%s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Errorf("-%s: empty file", name)
		}
	}

	none := &Flags{}
	if err := none.Run(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := (&Flags{CPU: filepath.Join(dir, "missing", "cpu")}).Run(func() error {
		t.Fatal("fn ran although the profile could not be created")
		return nil
	}); err == nil {
		t.Fatal("uncreatable profile path accepted")
	}
	_ = sink
}
