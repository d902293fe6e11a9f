package sim

// Oracle tests for the Figure 11 replay stages: the replay must
// reproduce the unmemoized reference loop (refmodel_test.go) field for
// field — same misses, same nested count, same per-variant average
// lines to the last bit. The stage contract (DESIGN.md §10) promises
// exact functional decomposition, so these tests compare with ==,
// never with tolerances.

import (
	"fmt"
	"testing"

	"clusterpt/internal/memcost"
	"clusterpt/internal/trace"
)

// figureRowsEqual compares two AccessRows field for field.
func figureRowsEqual(t *testing.T, label string, got, want AccessRow) {
	t.Helper()
	if got.RefMisses != want.RefMisses || got.RefAccesses != want.RefAccesses ||
		got.LinearNested != want.LinearNested {
		t.Fatalf("%s: counters diverged:\n got %+v\nwant %+v", label, got, want)
	}
	if len(got.AvgLines) != len(want.AvgLines) {
		t.Fatalf("%s: variant sets diverged: %v vs %v", label, got.AvgLines, want.AvgLines)
	}
	for name, v := range want.AvgLines {
		if got.AvgLines[name] != v {
			t.Fatalf("%s %s: %v != %v", label, name, got.AvgLines[name], v)
		}
	}
}

// TestFigure11MatchesReference is the acceptance gate for the replay
// stages: for two workloads (gcc: multi-process, mixed patterns; mp3d:
// single-process) and all four figures, the replay's row equals the
// reference loop's row exactly. The line-size axis adds 64 and
// 128-byte lines, where a clustered node's header and mapping word can
// fall on different lines (§6.3): both the driver and the reference
// loop refill the TLB from the clustered walk they charge, so both must
// agree at every geometry.
func TestFigure11MatchesReference(t *testing.T) {
	for _, name := range []string{"gcc", "mp3d"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			t.Fatalf("no %s profile", name)
		}
		for _, lineSize := range []int{256, 128, 64} {
			model := memcost.NewModel(lineSize)
			for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
				ref, err := runFigure11Ref(f, p, AccessConfig{Refs: 50_000, LineModel: model, Buf: &ReplayBuf{}})
				if err != nil {
					t.Fatal(err)
				}
				row, err := RunFigure11(f, p, AccessConfig{Refs: 50_000, LineModel: model, Buf: &ReplayBuf{}})
				if err != nil {
					t.Fatal(err)
				}
				figureRowsEqual(t, fmt.Sprintf("%s/line=%d/%v", name, lineSize, f), row, ref)
			}
		}
	}
}

// TestNewFigureStateNeedsClustered pins the refill precondition: the
// reference TLB refills from the clustered variant's walk, so a variant
// set without a clustered build is rejected up front rather than failing
// on the first miss.
func TestNewFigureStateNeedsClustered(t *testing.T) {
	p, ok := trace.ProfileByName("mp3d")
	if !ok {
		t.Fatal("no mp3d profile")
	}
	cfg := AccessConfig{}
	cfg.fill()
	var noClustered []TableVariant
	for _, v := range Fig11a.Variants() {
		if v.Class != LCClustered {
			noClustered = append(noClustered, v)
		}
	}
	if _, err := newFigureState(Fig11a, noClustered, p.Snapshot()[0], cfg); err == nil {
		t.Fatal("newFigureState accepted variants without a clustered build")
	}
	if _, err := newFigureState(Fig11a, Fig11a.Variants(), p.Snapshot()[0], cfg); err != nil {
		t.Fatalf("full variant set rejected: %v", err)
	}
}

// TestFigure11MatchesReferenceTinyRefs drives the zero-reference-cell
// edge: with a tiny total budget, RefShare rounds some of gcc's
// processes down to zero references, and the remaining stream is
// shorter than one chunk. The replay must still match the reference
// loop.
func TestFigure11MatchesReferenceTinyRefs(t *testing.T) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	const refs = 9 // gcc's 0.1-share processes round to zero references
	zeroed := false
	for _, pr := range p.Procs {
		if int(float64(refs)*pr.RefShare) == 0 {
			zeroed = true
		}
	}
	if !zeroed {
		t.Fatalf("want at least one process rounded to zero references at Refs=%d", refs)
	}
	ref, err := runFigure11Ref(Fig11a, p, AccessConfig{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunFigure11(Fig11a, p, AccessConfig{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	figureRowsEqual(t, "tiny", row, ref)
}

// TestFigure11MatchesReferenceMMU extends the oracle gate to the
// multi-level hierarchies: the L2 TLB and page-walk cache are stateful,
// but they evolve only on stream-ordered stages (driver for the shared
// levels, linear stage for the per-variant ones) while the walk stage
// consumes their outcomes as record bits, so the replay must still
// reproduce the reference loop exactly under -mmu l2 and l2+pwc.
func TestFigure11MatchesReferenceMMU(t *testing.T) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	for _, spec := range []string{"l2", "l2+pwc"} {
		mmuCfg, err := ParseMMU(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
			ref, err := runFigure11Ref(f, p, AccessConfig{Refs: 30_000, MMU: mmuCfg, Buf: &ReplayBuf{}})
			if err != nil {
				t.Fatal(err)
			}
			row, err := RunFigure11(f, p, AccessConfig{Refs: 30_000, MMU: mmuCfg, Buf: &ReplayBuf{}})
			if err != nil {
				t.Fatal(err)
			}
			figureRowsEqual(t, fmt.Sprintf("mmu=%s/%v", spec, f), row, ref)
		}
	}
}

// TestFigure11MMUReducesWalks sanity-checks the hierarchy's effect. An
// L2 hit saves the walk but the probe itself costs a line, so only a
// multi-line walk can profit: the forward-mapped tree (4+ lines) must
// drop strictly below its flat average, while the ~1-line hashed and
// clustered walks pay more in probes than they save — the hierarchy
// experiment's headline asymmetry. The page-walk cache must then lower
// (or at worst equal) the tree-walked variant further, leave the
// walk-less organizations untouched, and the reference miss count — the
// normalization denominator — must stay identical throughout.
func TestFigure11MMUReducesWalks(t *testing.T) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	cfgFor := func(spec string) AccessConfig {
		m, err := ParseMMU(spec)
		if err != nil {
			t.Fatal(err)
		}
		return AccessConfig{Refs: 50_000, MMU: m}
	}
	flat, err := RunFigure11(Fig11a, p, cfgFor("flat"))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := RunFigure11(Fig11a, p, cfgFor("l2"))
	if err != nil {
		t.Fatal(err)
	}
	pwc, err := RunFigure11(Fig11a, p, cfgFor("l2+pwc"))
	if err != nil {
		t.Fatal(err)
	}
	if l2.RefMisses != flat.RefMisses || pwc.RefMisses != flat.RefMisses {
		t.Fatalf("RefMisses moved with the hierarchy: flat=%d l2=%d l2+pwc=%d",
			flat.RefMisses, l2.RefMisses, pwc.RefMisses)
	}
	if l2.AvgLines["forward-mapped"] >= flat.AvgLines["forward-mapped"] {
		t.Errorf("forward-mapped: l2 avg %v !< flat avg %v",
			l2.AvgLines["forward-mapped"], flat.AvgLines["forward-mapped"])
	}
	// Single-line walks cannot be beaten by a probe that costs a line.
	for _, name := range []string{"hashed", "clustered"} {
		if l2.AvgLines[name] <= flat.AvgLines[name] {
			t.Errorf("%s: l2 avg %v unexpectedly at or below flat avg %v",
				name, l2.AvgLines[name], flat.AvgLines[name])
		}
	}
	if pwc.AvgLines["forward-mapped"] > l2.AvgLines["forward-mapped"] {
		t.Errorf("forward-mapped: l2+pwc avg %v > l2 avg %v",
			pwc.AvgLines["forward-mapped"], l2.AvgLines["forward-mapped"])
	}
	// Hashed and clustered tables have no upper walk: the PWC must be a
	// no-op for them.
	for _, name := range []string{"hashed", "clustered"} {
		if pwc.AvgLines[name] != l2.AvgLines[name] {
			t.Errorf("%s: l2+pwc avg %v != l2 avg %v (PWC should not apply)",
				name, pwc.AvgLines[name], l2.AvgLines[name])
		}
	}
}

// TestReplayBufShardedSteadyStateAllocs pins that a warmed ReplayBuf
// serves the replay without allocating: a whole replay over warmed
// stages reuses the buffer's chunk and the walk stage's cost memo.
func TestReplayBufShardedSteadyStateAllocs(t *testing.T) {
	t.Run("one-lane", func(t *testing.T) {
		p, ok := trace.ProfileByName("mp3d")
		if !ok {
			t.Fatal("no mp3d profile")
		}
		snap := p.Snapshot()[0]
		for _, f := range []Figure{Fig11a, Fig11d} {
			cfg := AccessConfig{}
			cfg.fill()
			st, err := newFigureState(f, f.Variants(), snap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			buf := &ReplayBuf{}
			gen := trace.NewGenerator(snap, 1)
			d := newDriver(f, st)
			ll := &linLane{f: f, lins: st.lins}
			w := newWalkLane(st)
			cycle := func() {
				w.memo = buf.takeMemo(snap, len(w.walked), f == Fig11d)
				if err := replayInline(gen, buf, 2*replayChunk, d, w, ll); err != nil {
					t.Fatal(err)
				}
			}
			cycle() // warm: chunk, memo slab, gather buffers
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Fatalf("%v: warmed replay allocates %v times per cycle", f, allocs)
			}
		}
	})
}
