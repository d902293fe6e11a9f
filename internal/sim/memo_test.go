package sim

import (
	"slices"
	"strings"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/trace"
)

// pageRun returns the VPNs first..last, skipping those in holes.
func pageRun(first, last addr.VPN, holes ...addr.VPN) []addr.VPN {
	var out []addr.VPN
next:
	for v := first; v <= last; v++ {
		for _, h := range holes {
			if v == h {
				continue next
			}
		}
		out = append(out, v)
	}
	return out
}

// TestCostMemoSlots pins the dense memo's addressing on a hand-built
// snapshot: region A spans block 0x10 exactly, region B starts mid
// block 0x11 (so that block straddles B's edge) and has a hole.
func TestCostMemoSlots(t *testing.T) {
	snap := trace.ProcessSnapshot{Regions: []trace.PlacedRegion{
		{Pages: pageRun(0x100, 0x10f)},
		{Pages: pageRun(0x118, 0x125, 0x119)},
	}}
	const stride = 2
	var m costMemo
	m.reset(snap, stride, true)
	// Cells: A's 16 pages, A's block, B's 14 pages, B's two blocks.
	if len(m.regions) != 2 || len(m.slab) != (16+1+14+2)*stride {
		t.Fatalf("%d regions, %d counts; want 2 regions, %d counts",
			len(m.regions), len(m.slab), (16+1+14+2)*stride)
	}
	cellAt := func(k int) *uint16 { return &m.slab[k*stride] }
	cellOf := func(vpn addr.VPN, block bool) *uint16 {
		c := m.slot(vpn, block)
		if len(c) != stride {
			t.Fatalf("vpn %#x block=%v: cell of %d counts, want %d", uint64(vpn), block, len(c), stride)
		}
		return &c[0]
	}

	// First and last page of each region, and a hole inside B's span.
	for _, c := range []struct {
		vpn  addr.VPN
		cell int
	}{
		{0x100, 0}, {0x10f, 15},
		{0x118, 17}, {0x119, 18}, {0x125, 30},
	} {
		if cellOf(c.vpn, false) != cellAt(c.cell) {
			t.Errorf("page %#x: not cell %d", uint64(c.vpn), c.cell)
		}
	}
	// Every page cell is distinct: write each through slot, read back.
	pages := append(pageRun(0x100, 0x10f), pageRun(0x118, 0x125)...)
	for i, vpn := range pages {
		m.slot(vpn, false)[stride-1] = uint16(i + 1)
	}
	for i, vpn := range pages {
		if got := m.slot(vpn, false)[stride-1]; got != uint16(i+1) {
			t.Fatalf("page %#x reads %d, wrote %d", uint64(vpn), got, i+1)
		}
	}

	// Blocks: B's first block straddles its edge and is shared by every
	// B page in it, distinct from A's block and from B's second block.
	for _, c := range []struct {
		vpn  addr.VPN
		cell int
	}{
		{0x100, 16}, {0x10f, 16},
		{0x118, 31}, {0x11f, 31},
		{0x120, 32}, {0x125, 32},
	} {
		if cellOf(c.vpn, true) != cellAt(c.cell) {
			t.Errorf("block of page %#x: not cell %d", uint64(c.vpn), c.cell)
		}
	}

	// Outside every region: below A, the gap before B, above B.
	for _, vpn := range []addr.VPN{0xff, 0x110, 0x117, 0x126, 1 << 40} {
		if m.slot(vpn, false) != nil || m.slot(vpn, true) != nil {
			t.Errorf("vpn %#x outside every region has a memo cell", uint64(vpn))
		}
	}

	// A reset clears every cell and, once sized, allocates nothing.
	m.reset(snap, stride, true)
	for _, l := range m.slab {
		if l != 0 {
			t.Fatal("reset left a count behind")
		}
	}
	if n := testing.AllocsPerRun(10, func() { m.reset(snap, stride, true) }); n != 0 {
		t.Fatalf("warmed reset allocates %v times", n)
	}
}

// TestWalkLaneMemo drives the walk stage over a snapshot with an
// unaligned region (compress's sh: its heap starts mid-block): the
// memoized cost of each region's first and last page, and of the
// blocks at its edges, equals a direct walk of the non-canonical
// variants, on first sight and from the memo. A VPN outside every
// region fails with the walk's own "lost" error instead of panicking.
func TestWalkLaneMemo(t *testing.T) {
	p, ok := trace.ProfileByName("compress")
	if !ok {
		t.Fatal("no compress profile")
	}
	snap := p.Snapshot()[1]
	cfg := AccessConfig{}
	cfg.fill()
	st, err := newFigureState(Fig11d, Fig11d.Variants(), snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalkLane(st)
	w.memo = (*ReplayBuf)(nil).takeMemo(snap, len(w.walked), true)

	direct := func(vpn addr.VPN, block bool) []uint32 {
		var c []uint32
		for i, v := range st.variants {
			if v.ReservedTLB > 0 || i == st.canonIdx {
				continue
			}
			var cost pagetable.WalkCost
			var found bool
			if block {
				vpbn, _ := addr.BlockSplit(vpn, 4)
				_, cost, found = st.builds[i].Table.(pagetable.BlockReader).LookupBlock(vpbn, 4)
			} else {
				_, cost, found = st.builds[i].Table.Lookup(addr.VAOf(vpn))
			}
			if !found {
				t.Fatalf("%s lost %#x", v.Name, uint64(vpn))
			}
			c = append(c, uint32(cost.Lines))
		}
		return c
	}

	straddles := false
	for _, r := range snap.Regions {
		first, last := r.Pages[0], r.Pages[len(r.Pages)-1]
		if first%16 != 0 {
			straddles = true
		}
		for _, vpn := range []addr.VPN{first, last} {
			for _, block := range []bool{false, true} {
				rec := addr.VAOf(vpn)
				if block {
					rec |= missBlockBit
				}
				want := direct(vpn, block)
				for pass := 0; pass < 2; pass++ {
					if err := w.cost(rec); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(w.cur, want) {
						t.Fatalf("%s vpn %#x block=%v pass %d: cost %v, direct walk %v",
							r.Spec.Name, uint64(vpn), block, pass, w.cur, want)
					}
				}
			}
		}
	}
	if !straddles {
		t.Fatal("no region starts mid-block; the straddling case is not covered")
	}

	outside := addr.VAOf(1 << 40)
	if err := w.cost(outside); err == nil || !strings.Contains(err.Error(), "lost vpn") {
		t.Errorf("page outside every region: err %v, want a lost vpn error", err)
	}
	if err := w.cost(outside | missBlockBit); err == nil || !strings.Contains(err.Error(), "lost block") {
		t.Errorf("block outside every region: err %v, want a lost block error", err)
	}
	if err := w.account(outside); err == nil || !strings.Contains(err.Error(), "lost vpn") {
		t.Errorf("account of a record outside every region: err %v, want a lost vpn error", err)
	}
}
