package sim

// End-to-end replay benchmarks for the reference fast path: the full
// Figure 11a replay — buffered generation, TLB probe, miss service
// across all four page-table variants, dense line accounting — with the
// indexed TLB versus the retained linear-scan reference (ScanTLB). Both
// modes produce byte-identical rows; only the speed differs. The
// speedup grows with TLB size (the scan is O(entries), the index O(1)),
// so the sweep covers the 64-entry base case through 1024 entries.
// BenchmarkFigure11Prefetch adds Figure 11d's block-prefetch path.
// `make bench-replay` snapshots these into BENCH_replay.json.

import (
	"fmt"
	"testing"

	"clusterpt/internal/trace"
)

func benchmarkFigure11(b *testing.B, entries int, scan bool) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	cfg := AccessConfig{Refs: 400_000, Entries: entries, Seed: 1, ScanTLB: scan, Buf: &ReplayBuf{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure11(Fig11a, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Replay(b *testing.B) {
	for _, entries := range []int{64, 256, 1024} {
		for _, mode := range []struct {
			name string
			scan bool
		}{{"indexed", false}, {"scan", true}} {
			b.Run(fmt.Sprintf("e%d/%s", entries, mode.name), func(b *testing.B) {
				benchmarkFigure11(b, entries, mode.scan)
			})
		}
	}
}

// BenchmarkFigure11Prefetch measures Figure 11d, the complete-subblock
// TLB with block prefetch (§4.4): every block miss gathers the whole
// block from the clustered table (whose gather also refills the
// reference TLB) and the linear table, and charges the other variants'
// memoized block gathers, so it times the block-gather and block-fill
// paths the Figure 11a benchmarks above never reach.
func BenchmarkFigure11Prefetch(b *testing.B) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	cfg := AccessConfig{Refs: 400_000, Seed: 1, Buf: &ReplayBuf{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure11(Fig11d, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFigure11ScanModeIdentical pins that ScanTLB changes nothing but
// speed: the row computed through the indexed TLBs equals the row
// computed through the linear-scan reference, field for field.
func TestFigure11ScanModeIdentical(t *testing.T) {
	p, ok := trace.ProfileByName("mp3d")
	if !ok {
		t.Fatal("no mp3d profile")
	}
	for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
		fast, err := RunFigure11(f, p, AccessConfig{Refs: 50_000, Buf: &ReplayBuf{}})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunFigure11(f, p, AccessConfig{Refs: 50_000, ScanTLB: true})
		if err != nil {
			t.Fatal(err)
		}
		if fast.RefMisses != ref.RefMisses || fast.RefAccesses != ref.RefAccesses ||
			fast.LinearNested != ref.LinearNested {
			t.Fatalf("%v: counters diverged: %+v vs %+v", f, fast, ref)
		}
		for name, v := range ref.AvgLines {
			if fast.AvgLines[name] != v {
				t.Fatalf("%v %s: %v vs %v", f, name, fast.AvgLines[name], v)
			}
		}
	}
}
