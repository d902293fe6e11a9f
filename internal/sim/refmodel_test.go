package sim

// The reference model of the Figure 11 replay: the unmemoized
// per-reference loop that the replay stages (shard.go) decompose. Every
// reference-TLB miss walks every non-linear table and every linear
// variant looks its table up live, exactly as §6.1 describes the
// measurement, with no memo, no chunk stages and no lanes. The identity
// tests in shard_test.go pin RunFigure11 at every lane count to
// runFigure11Ref field by field.

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// runFigure11Ref is RunFigure11 over the reference loop.
func runFigure11Ref(f Figure, p trace.Profile, cfg AccessConfig) (AccessRow, error) {
	return runFigure11(f, p, cfg, runProcessRef)
}

// refState is the reference loop's per-process state: the shared
// figure state plus its block-gather buffers. canonBuf holds the
// clustered variant's gather, which must survive the later variants'
// gathers to fill the TLB.
type refState struct {
	*figureState
	blockBuf []pte.Entry
	canonBuf []pte.Entry
}

// runProcessRef drives one process's trace through the figure's TLB and
// page tables one reference at a time.
func runProcessRef(f Figure, snap trace.ProcessSnapshot, refs int, cfg AccessConfig) (lineCounts, uint64, uint64, error) {
	var lines lineCounts
	fs, err := newFigureState(f, f.Variants(), snap, cfg)
	if err != nil {
		return lines, 0, 0, err
	}
	st := &refState{figureState: fs}

	gen := trace.NewGenerator(snap, cfg.Seed*31+1)
	var misses, nested uint64
	err = replay(gen, cfg.Buf, refs, func(va addr.V) error {
		res := st.refTLB.Access(va)
		if !res.Hit {
			misses++
			if err := serviceMissRef(f, va, res, st, &lines); err != nil {
				return err
			}
		}
		for _, ls := range st.lins {
			n, err := serviceLinearRef(f, va, ls, &lines)
			if err != nil {
				return err
			}
			nested += n
		}
		return nil
	})
	if err != nil {
		return lineCounts{}, 0, 0, err
	}
	return lines, misses, nested, nil
}

// serviceMissRef services one reference-TLB miss: under a multi-level
// MMU it probes the L2 first (an L2 hit refills the L1 with the base
// page and skips every walk); on a full miss it walks every non-linear
// page table for the faulting address — eliding the tree-walked
// variant's upper levels on a page-walk-cache hit — and refills the
// reference TLB (and the L2) with what the canonical (clustered)
// variant's own walk returned.
func serviceMissRef(f Figure, va addr.V, res tlb.Result, st *refState, lines *lineCounts) error {
	vpn := addr.VPNOf(va)
	if st.l2 != nil {
		// The probe itself costs one line per modelled hierarchy,
		// charged to every non-linear variant hit or miss.
		for _, v := range st.variants {
			if v.ReservedTLB == 0 {
				lines[v.Class] += l2ProbeLines
			}
		}
		if st.l2.Access(va).Hit {
			st.refTLB.Insert(baseRefill(vpn))
			return nil
		}
	}
	pwcHit := false
	if st.pwcIdx >= 0 {
		pwcHit = st.pwcs[st.pwcIdx].Probe(vpn)
	}

	if f == Fig11d && !res.SubblockMiss {
		// Block miss with prefetch: gather the whole block (§4.4).
		vpbn, _ := addr.BlockSplit(vpn, 4)
		for i, v := range st.variants {
			if v.ReservedTLB > 0 {
				continue
			}
			br, ok := st.builds[i].Table.(pagetable.BlockReader)
			if !ok {
				return fmt.Errorf("variant %q cannot prefetch blocks", v.Name)
			}
			buf := &st.blockBuf
			if i == st.canonIdx {
				buf = &st.canonBuf
			}
			entries, cost, found := br.AppendBlock((*buf)[:0], vpbn, 4)
			if !found {
				return fmt.Errorf("variant %q lost block %#x", v.Name, uint64(vpbn))
			}
			*buf = entries
			l := cost.Lines
			if pwcHit && i == st.pwcIdx {
				l = walkcache.ElideLines(l, st.pwcUpper)
			}
			lines[v.Class] += uint64(l)
		}
		st.refTLB.InsertBlock(vpbn, st.canonBuf)
		if st.l2 != nil {
			for _, e := range st.canonBuf {
				st.l2.Insert(e)
			}
		}
		return nil
	}

	var refill pte.Entry
	for i, v := range st.variants {
		if v.ReservedTLB > 0 {
			continue
		}
		e, cost, ok := st.builds[i].Table.Lookup(va)
		if !ok {
			return fmt.Errorf("variant %q lost vpn %#x", v.Name, uint64(vpn))
		}
		if i == st.canonIdx {
			refill = e
		}
		l := cost.Lines
		if pwcHit && i == st.pwcIdx {
			l = walkcache.ElideLines(l, st.pwcUpper)
		}
		lines[v.Class] += uint64(l)
	}
	st.refTLB.Insert(refill)
	if st.l2 != nil {
		st.l2.Insert(refill)
	}
	return nil
}

// serviceLinearRef advances the linear variant's TLBs for one
// reference. A main-TLB miss costs one leaf-PTE line; a nested miss on
// the page-table page's mapping adds the upper-level walk, computed
// per miss rather than hoisted.
func serviceLinearRef(f Figure, va addr.V, ls *linState, lines *lineCounts) (uint64, error) {
	res := ls.main.Access(va)
	if res.Hit {
		return 0, nil
	}
	vpn := addr.VPNOf(va)

	if ls.l2 != nil {
		lines[ls.class] += l2ProbeLines
		if ls.l2.Access(va).Hit {
			ls.main.Insert(baseRefill(vpn))
			return 0, nil
		}
	}

	if f == Fig11d && !res.SubblockMiss {
		vpbn, _ := addr.BlockSplit(vpn, 4)
		entries, cost, ok := ls.table.AppendBlock(ls.blockBuf[:0], vpbn, 4)
		if !ok {
			return 0, fmt.Errorf("linear lost block %#x", uint64(vpbn))
		}
		ls.blockBuf = entries
		lines[ls.class] += uint64(cost.Lines)
		ls.main.InsertBlock(vpbn, entries)
		if ls.l2 != nil {
			for _, e := range entries {
				ls.l2.Insert(e)
			}
		}
	} else {
		e, cost, ok := ls.table.Lookup(va)
		if !ok {
			return 0, fmt.Errorf("linear lost vpn %#x", uint64(vpn))
		}
		lines[ls.class] += uint64(cost.Lines)
		ls.main.Insert(e)
		if ls.l2 != nil {
			ls.l2.Insert(e)
		}
	}

	leafVA := addr.VAOf(addr.VPN(linear.LeafPageIndex(vpn)))
	if !ls.pt.Access(leafVA).Hit {
		w := uint64(ls.table.UpperWalkCost(vpn).Lines)
		if ls.pwc != nil && ls.pwc.Probe(vpn) {
			w = 1
		}
		lines[ls.class] += w
		ls.pt.Insert(pteForLeaf(vpn))
		return 1, nil
	}
	return 0, nil
}
