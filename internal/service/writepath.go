package service

import (
	"fmt"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// writePath is the write side over the front ends holding copies of one
// logical table — one for a Service, one per replica for a Replicated
// table. Every mutation is a two-phase round on the stripe covering the
// written page block:
//
//	phase 1  lock that stripe on EVERY front end, in ascending order
//	         (the single global order — two conflicting writers
//	         serialize instead of deadlocking), apply the mutation to
//	         each table, and stamp the front end's sequence counter on
//	         success;
//	phase 2  invalidate the affected cache slots and hierarchy models on
//	         every front end, and unlock.
//
// A fill of a page takes the same stripe as the page's writes, so it
// can never republish a translation a writer just killed (DESIGN.md §6).
type writePath struct {
	logBlock uint
	replicas []*frontEnd
	// seq[i] stamps replica i's successful write rounds; quiescent
	// readers compare stamps across replicas to audit convergence.
	seq []atomic.Uint64
	// charge, when set, prices one successful round of pages base pages
	// written from node origin.
	charge func(origin, pages int)

	maps, mapConflicts            atomic.Uint64
	unmaps, unmapMisses, protects atomic.Uint64
	demotes                       atomic.Uint64
}

func newWritePath(logBlock uint, replicas []*frontEnd, charge func(origin, pages int)) writePath {
	return writePath{
		logBlock: logBlock,
		replicas: replicas,
		seq:      make([]atomic.Uint64, len(replicas)),
		charge:   charge,
	}
}

// writeStats returns the write counts with the lookup counts left zero.
func (w *writePath) writeStats() Stats {
	return Stats{
		Maps:         w.maps.Load(),
		MapConflicts: w.mapConflicts.Load(),
		Unmaps:       w.unmaps.Load(),
		UnmapMisses:  w.unmapMisses.Load(),
		Protects:     w.protects.Load(),
		Demotes:      w.demotes.Load(),
	}
}

// broadcast runs one two-phase write round over the pages in vpns,
// which must all lie in the page block containing vpns[0] (one stripe
// covers them). apply runs against each replica's table and returns how
// many pages it changed; replicas disagreeing with replica 0 on the
// outcome panic — the protocol guarantees convergence, so disagreement
// means a caller mutated a replica table directly. On success the round
// is charged to origin (block writes batch; that is the point of the
// two-phase shape).
func (w *writePath) broadcast(origin int, vpns []addr.VPN, apply func(t pagetable.PageTable) (int, error)) (int, error) {
	si := w.replicas[0].stripeIndex(vpns[0])
	for _, rep := range w.replicas {
		//ptlint:allow locksafety phase-2 loop below unlocks every stripe this loop locked; w.replicas is never empty (fill enforces Replicas >= 1)
		rep.stripes[si].mu.Lock()
	}
	pages := 0
	var firstErr error
	for i, rep := range w.replicas {
		p, err := apply(rep.table)
		if i == 0 {
			pages, firstErr = p, err
		} else if p != pages || (err == nil) != (firstErr == nil) {
			panic(fmt.Sprintf("service: replica %d diverged on vpn %#x: %d pages (%v), replica 0 saw %d (%v)",
				i, uint64(vpns[0]), p, err, pages, firstErr))
		}
		if p > 0 {
			w.seq[i].Add(1)
		}
	}
	for _, rep := range w.replicas {
		for _, vpn := range vpns {
			rep.slotFor(vpn).clear(vpn)
		}
		if h := rep.mmuh.Load(); h != nil {
			h.InvalidateBatch(vpns)
		}
		rep.stripes[si].mu.Unlock()
	}
	if pages > 0 && w.charge != nil {
		w.charge(origin, pages)
	}
	return pages, firstErr
}

func (w *writePath) mapAt(origin int, vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	vpns := [1]addr.VPN{vpn}
	_, err := w.broadcast(origin, vpns[:], func(t pagetable.PageTable) (int, error) {
		if err := t.Map(vpn, ppn, attr); err != nil {
			return 0, err
		}
		return 1, nil
	})
	if err != nil {
		w.mapConflicts.Add(1)
		return err
	}
	w.maps.Add(1)
	return nil
}

// mapRangeAt is the batched region-fault path. Each page block is one
// round — one stripe acquisition per replica, however many pages the
// block holds — so faulting a region in costs a fraction 1/blockpages
// of the locking a page-at-a-time loop pays.
func (w *writePath) mapRangeAt(origin int, vpn addr.VPN, ppn addr.PPN, n uint64, attr pte.Attr) (int, error) {
	if n == 0 {
		return 0, nil
	}
	rg := addr.PageRange(addr.VAOf(vpn), n)
	mapped := 0
	var firstErr error
	var vpns []addr.VPN
	rg.Blocks(w.logBlock, func(vpbn addr.VPBN, lo, hi uint64) bool {
		vpns = vpns[:0]
		for boff := lo; boff <= hi; boff++ {
			vpns = append(vpns, addr.BlockJoin(vpbn, boff, w.logBlock))
		}
		p, err := w.broadcast(origin, vpns, func(t pagetable.PageTable) (int, error) {
			for i, pv := range vpns {
				if err := t.Map(pv, ppn+addr.PPN(pv-vpn), attr); err != nil {
					return i, fmt.Errorf("page %d/%d: %w", mapped+i, n, err)
				}
			}
			return len(vpns), nil
		})
		mapped += p
		if err != nil {
			w.mapConflicts.Add(1)
			firstErr = err
			return false
		}
		return true
	})
	w.maps.Add(uint64(mapped))
	return mapped, firstErr
}

func (w *writePath) unmapAt(origin int, vpn addr.VPN) error {
	vpns := [1]addr.VPN{vpn}
	_, err := w.broadcast(origin, vpns[:], func(t pagetable.PageTable) (int, error) {
		if err := t.Unmap(vpn); err != nil {
			return 0, err
		}
		return 1, nil
	})
	if err != nil {
		w.unmapMisses.Add(1)
		return err
	}
	w.unmaps.Add(1)
	return nil
}

// protectAt processes the range one page block at a time, each block
// one round. Organizations whose ProtectRange applies per-page
// semantics (all four standard ones; clustered demotes partially
// covered compact PTEs, §3.1) stay coherent because only translations
// inside the range change.
func (w *writePath) protectAt(origin int, rg addr.Range, set, clear pte.Attr) error {
	if rg.Empty() {
		return nil
	}
	var firstErr error
	var vpns []addr.VPN
	rg.Blocks(w.logBlock, func(vpbn addr.VPBN, lo, hi uint64) bool {
		vpns = vpns[:0]
		for boff := lo; boff <= hi; boff++ {
			vpns = append(vpns, addr.BlockJoin(vpbn, boff, w.logBlock))
		}
		sub := addr.PageRange(addr.VAOf(vpns[0]), hi-lo+1)
		_, err := w.broadcast(origin, vpns, func(t pagetable.PageTable) (int, error) {
			if _, err := t.ProtectRange(sub, set, clear); err != nil {
				return 0, err
			}
			return len(vpns), nil
		})
		if err != nil {
			firstErr = err
			return false
		}
		return true
	})
	w.protects.Add(1)
	return firstErr
}

// tableDemoter is the organization-side demotion surface (clustered
// tables): split the compact PTE covering a block back into base PTEs,
// leaving every translation intact.
type tableDemoter interface {
	Demote(vpbn addr.VPBN) bool
	LogSBF() uint
}

// demoteAt splits the compact PTE covering vpn's block back into base
// PTEs, for organizations that support in-place demotion with a
// subblock factor no coarser than the lock block (one stripe must cover
// the whole split). It reports whether a split happened; translations
// are unchanged, but the format change is a real PTE rewrite, so a
// successful demotion invalidates and is charged for the block like any
// other write.
func (w *writePath) demoteAt(origin int, vpn addr.VPN) bool {
	//ptlint:allow guardedby the type assertion reads the table's immutable organization identity, never mapped state
	d, ok := w.replicas[0].table.(tableDemoter)
	if !ok {
		return false
	}
	log := d.LogSBF()
	if log > w.logBlock {
		return false
	}
	vpbn, _ := addr.BlockSplit(vpn, log)
	base := addr.BlockJoin(vpbn, 0, log)
	vpns := make([]addr.VPN, uint64(1)<<log)
	for i := range vpns {
		vpns[i] = base + addr.VPN(i)
	}
	pages, _ := w.broadcast(origin, vpns, func(t pagetable.PageTable) (int, error) { //ptlint:allow errdrop the demote apply never errors; its outcome is the page count

		if t.(tableDemoter).Demote(vpbn) {
			return len(vpns), nil
		}
		return 0, nil
	})
	if pages == 0 {
		return false
	}
	w.demotes.Add(1)
	return true
}

// resetAll rewinds every table (when the organization implements
// pagetable.Resetter), flushes every cache and hierarchy, and zeroes
// the counters and sequence stamps. Callers must be quiescent; every
// stripe of every replica is held exclusively for the duration, in the
// same (replica, stripe) order the broadcast uses so a concurrent write
// cannot deadlock against the reset.
func (w *writePath) resetAll() {
	for _, rep := range w.replicas {
		for i := range rep.stripes {
			rep.stripes[i].mu.Lock()
		}
	}
	for i, rep := range w.replicas {
		rep.reset()
		w.seq[i].Store(0)
	}
	for _, c := range []*atomic.Uint64{&w.maps, &w.mapConflicts, &w.unmaps, &w.unmapMisses, &w.protects, &w.demotes} {
		c.Store(0)
	}
	for _, rep := range w.replicas {
		for i := range rep.stripes {
			rep.stripes[i].mu.Unlock()
		}
	}
}
