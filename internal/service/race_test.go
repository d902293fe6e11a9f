package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/forward"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/trace"
)

// The race stress test: many goroutines drive mixed traffic with
// overlapping VA ranges through one service. Its first job is to give the
// race detector real interleavings to chew on (`go test -race`); its
// second is the post-quiesce coherence audit — after the storm, every
// surviving cache entry must agree with the table, and the table's
// incremental size accounting must match a ground-truth walk.
//
// Correctness of *results* under contention is intentionally weak here
// (concurrent map/unmap of one page can land in either order); the strong
// sequential guarantees live in oracle_test.go. What must hold even under
// races: no panic, no torn reads, no stale cache entry after quiesce, and
// errors restricted to the two expected mapping races.

func stressService(t *testing.T, s *Service) {
	t.Helper()
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	snap := p.Snapshot()[0]

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-goroutine seeds over the *same* snapshot: streams touch
			// the same pages, which is the contention we are testing.
			stream := trace.NewOpStream(snap, trace.DeriveSeed(42, fmt.Sprintf("worker-%d", w)), trace.WriteHeavyMix)
			for i := 0; i < steps; i++ {
				op := stream.Next()
				switch op.Kind {
				case trace.OpLookup:
					s.Lookup(addr.VAOf(op.VPN))
				case trace.OpMap:
					if err := s.Map(op.VPN, op.PPN, op.Attr); err != nil && !errors.Is(err, pagetable.ErrAlreadyMapped) {
						errc <- fmt.Errorf("map %#x: %w", uint64(op.VPN), err)
						return
					}
				case trace.OpUnmap:
					if err := s.Unmap(op.VPN); err != nil && !errors.Is(err, pagetable.ErrNotMapped) {
						errc <- fmt.Errorf("unmap %#x: %w", uint64(op.VPN), err)
						return
					}
				case trace.OpProtect:
					if err := s.Protect(op.Range(), op.Set, op.Clear); err != nil {
						errc <- fmt.Errorf("protect %#x+%d: %w", uint64(op.VPN), op.Pages, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Post-quiesce coherence: every surviving cache entry must agree with
	// the table on (PPN, Attr). A violation means an invalidation was lost
	// or a fill raced past a mutation — exactly the bugs striping is
	// supposed to make impossible.
	for _, c := range cachedEntries(&s.frontEnd) {
		e, _, ok := s.table.Lookup(addr.VAOf(c.vpn))
		if !ok {
			t.Errorf("cache slot %d: vpn %#x cached but not mapped", c.slot, uint64(c.vpn))
			continue
		}
		if e.PPN != c.e.PPN || e.Attr != c.e.Attr {
			t.Errorf("cache slot %d: vpn %#x cached (ppn %#x, %v), table (ppn %#x, %v)",
				c.slot, uint64(c.vpn), uint64(c.e.PPN), c.e.Attr, uint64(e.PPN), e.Attr)
		}
	}

	// Incremental size accounting survived the storm.
	if a, ok := s.table.(interface{ AuditSize() pagetable.Size }); ok {
		if got, want := s.table.Size(), a.AuditSize(); got != want {
			t.Errorf("Size %+v disagrees with AuditSize %+v", got, want)
		}
	}

	st := s.Stats()
	if st.Lookups() == 0 || st.Maps == 0 || st.Unmaps == 0 {
		t.Errorf("stress did not exercise all paths: %+v", st)
	}
}

// TestRaceStress runs the storm against every organization. Small stripe
// and cache-slot counts force real lock and slot contention.
func TestRaceStress(t *testing.T) {
	cfg := Config{Stripes: 16, CacheSlots: 128}
	for _, s := range []*Service{
		MustWrap(core.MustNew(core.Config{Buckets: 256}), cfg),
		MustWrap(core.MustNew(core.Config{Buckets: 64, SubblockFactor: 16, SparseNodes: true}), cfg),
		MustWrap(hashed.MustNew(hashed.Config{Buckets: 256}), cfg),
		MustWrap(forward.MustNew(forward.Config{}), cfg),
		MustWrap(linear.MustNew(linear.Config{}), cfg),
	} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			stressService(t, s)
		})
	}
}
