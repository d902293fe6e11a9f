package core

import (
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
)

func TestProtectRangeFullNodes(t *testing.T) {
	tab := newTable(t, Config{})
	for i := addr.VPN(0); i < 32; i++ { // two blocks
		if err := tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR|pte.AttrW); err != nil {
			t.Fatal(err)
		}
	}
	// Write-protect pages 0x44..0x57 (spans both blocks).
	cost, err := tab.ProtectRange(addr.PageRange(addr.VAOf(0x44), 20), 0, pte.AttrW)
	if err != nil {
		t.Fatal(err)
	}
	// One hash probe per page block (§3.1), not per base page.
	if cost.Probes != 2 {
		t.Errorf("probes = %d, want 2", cost.Probes)
	}
	for i := addr.VPN(0); i < 32; i++ {
		e, _, ok := tab.Lookup(addr.VAOf(0x40 + i))
		if !ok {
			t.Fatalf("page %d missing", i)
		}
		inRange := i >= 4 && i < 24
		if got := e.Attr.Has(pte.AttrW); got == inRange {
			t.Errorf("page %d writable=%v, inRange=%v", i, got, inRange)
		}
	}
}

func TestProtectRangeWholeCompactPTE(t *testing.T) {
	tab := newTable(t, Config{})
	if err := tab.MapPartial(4, 0x40, pte.AttrR|pte.AttrW, 0xffff); err != nil {
		t.Fatal(err)
	}
	// Covering the whole block updates the psb word in place — no
	// demotion.
	if _, err := tab.ProtectRange(addr.PageRange(addr.VAOf(0x40), 16), 0, pte.AttrW); err != nil {
		t.Fatal(err)
	}
	if k, _ := tab.BlockKind(4); k != pte.KindPartial {
		t.Errorf("kind = %v, psb was demoted unnecessarily", k)
	}
	if e, _, ok := tab.Lookup(addr.VAOf(0x45)); !ok || e.Attr.Has(pte.AttrW) {
		t.Errorf("entry = %v ok=%v", e, ok)
	}
}

func TestProtectRangePartialCoverageDemotes(t *testing.T) {
	tab := newTable(t, Config{})
	if err := tab.MapSuperpage(0x40, 0x100, pte.AttrR|pte.AttrW, addr.Size64K); err != nil {
		t.Fatal(err)
	}
	// mprotect half the superpage: must demote, then split attributes.
	if _, err := tab.ProtectRange(addr.PageRange(addr.VAOf(0x40), 8), 0, pte.AttrW); err != nil {
		t.Fatal(err)
	}
	if k, _ := tab.BlockKind(4); k != pte.KindBase {
		t.Errorf("kind = %v, want demoted full node", k)
	}
	for i := addr.VPN(0); i < 16; i++ {
		e, _, ok := tab.Lookup(addr.VAOf(0x40 + i))
		if !ok || e.PPN != 0x100+addr.PPN(i) {
			t.Fatalf("page %d = %v ok=%v", i, e, ok)
		}
		if w := e.Attr.Has(pte.AttrW); w != (i >= 8) {
			t.Errorf("page %d writable = %v", i, w)
		}
	}
}

func TestProtectRangeLargeSuperpageDemotes(t *testing.T) {
	tab := newTable(t, Config{})
	if err := tab.MapSuperpage(0x1000, 0x2000, pte.AttrR|pte.AttrW, addr.Size1M); err != nil {
		t.Fatal(err)
	}
	// Protect 4 pages inside the 9th block: that replica demotes to base
	// words with the correct frames; others stay superpage replicas.
	if _, err := tab.ProtectRange(addr.PageRange(addr.VAOf(0x1082), 4), 0, pte.AttrW); err != nil {
		t.Fatal(err)
	}
	e, _, ok := tab.Lookup(addr.VAOf(0x1083))
	if !ok || e.Kind != pte.KindBase || e.PPN != 0x2083 || e.Attr.Has(pte.AttrW) {
		t.Errorf("demoted page = %v ok=%v", e, ok)
	}
	e, _, ok = tab.Lookup(addr.VAOf(0x1088))
	if !ok || e.Kind != pte.KindBase || !e.Attr.Has(pte.AttrW) {
		t.Errorf("same-block untouched page = %v ok=%v", e, ok)
	}
	e, _, ok = tab.Lookup(addr.VAOf(0x1010))
	if !ok || e.Kind != pte.KindSuperpage || e.PPN != 0x2010 {
		t.Errorf("other replica = %v ok=%v", e, ok)
	}
}

func TestProtectRangeSubBlockSuperpagePartial(t *testing.T) {
	tab := newTable(t, Config{})
	if err := tab.MapSuperpage(0x44, 0x204, pte.AttrR|pte.AttrW, addr.Size16K); err != nil {
		t.Fatal(err)
	}
	// Cover half the 16KB superpage: demote to base words.
	if _, err := tab.ProtectRange(addr.PageRange(addr.VAOf(0x44), 2), 0, pte.AttrW); err != nil {
		t.Fatal(err)
	}
	for i := addr.VPN(4); i < 8; i++ {
		e, _, ok := tab.Lookup(addr.VAOf(0x40 + i))
		if !ok || e.Kind != pte.KindBase {
			t.Fatalf("page %d = %v ok=%v", i, e, ok)
		}
		if w := e.Attr.Has(pte.AttrW); w != (i >= 6) {
			t.Errorf("page %d writable = %v", i, w)
		}
	}
}

func TestProtectRangeSetsBits(t *testing.T) {
	tab := newTable(t, Config{})
	tab.Map(0x40, 0x100, pte.AttrR)
	if _, err := tab.ProtectRange(addr.PageRange(addr.VAOf(0x40), 1), pte.AttrW|pte.AttrMod, 0); err != nil {
		t.Fatal(err)
	}
	e, _, _ := tab.Lookup(addr.VAOf(0x40))
	if !e.Attr.Has(pte.AttrR | pte.AttrW | pte.AttrMod) {
		t.Errorf("attrs = %v", e.Attr)
	}
}

func TestProtectRangeEmptyAndUnmapped(t *testing.T) {
	tab := newTable(t, Config{})
	if cost, err := tab.ProtectRange(addr.Range{}, pte.AttrW, 0); err != nil || cost.Probes != 0 {
		t.Errorf("empty range cost=%+v err=%v", cost, err)
	}
	// Unmapped blocks are probed but nothing changes.
	if cost, err := tab.ProtectRange(addr.PageRange(0x100000, 16), pte.AttrW, 0); err != nil || cost.Probes != 1 {
		t.Errorf("unmapped range cost=%+v err=%v", cost, err)
	}
}

func TestVisitRange(t *testing.T) {
	tab := newTable(t, Config{})
	for i := addr.VPN(0); i < 20; i++ {
		if i%3 == 0 {
			continue // leave holes
		}
		tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	var got []addr.VPN
	tab.VisitRange(addr.PageRange(addr.VAOf(0x40), 20), func(vpn addr.VPN, e pte.Entry) bool {
		got = append(got, vpn)
		if e.PPN != 0x100+addr.PPN(vpn-0x40) {
			t.Errorf("vpn %#x frame %#x", uint64(vpn), uint64(e.PPN))
		}
		return true
	})
	want := 0
	for i := addr.VPN(0); i < 20; i++ {
		if i%3 != 0 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("visited %d pages, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("visit order not ascending: %v", got)
		}
	}
}

func TestVisitRangeEarlyStop(t *testing.T) {
	tab := newTable(t, Config{})
	for i := addr.VPN(0); i < 40; i++ {
		tab.Map(i, addr.PPN(i), pte.AttrR)
	}
	n := 0
	tab.VisitRange(addr.PageRange(0, 40), func(addr.VPN, pte.Entry) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("visited %d, want 5", n)
	}
}

func TestVisitRangeMixedFormats(t *testing.T) {
	tab := newTable(t, Config{})
	tab.Map(0x40, 0x100, pte.AttrR)                        // base in block 4
	tab.MapPartial(5, 0x200, pte.AttrR, 0b11)              // psb in block 5
	tab.MapSuperpage(0x60, 0x300, pte.AttrR, addr.Size64K) // superpage block 6
	var kinds []pte.Kind
	tab.VisitRange(addr.PageRange(addr.VAOf(0x40), 48), func(_ addr.VPN, e pte.Entry) bool {
		kinds = append(kinds, e.Kind)
		return true
	})
	if len(kinds) != 1+2+16 {
		t.Fatalf("visited %d mappings", len(kinds))
	}
	if kinds[0] != pte.KindBase || kinds[1] != pte.KindPartial || kinds[3] != pte.KindSuperpage {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestLookupBlock(t *testing.T) {
	tab := newTable(t, Config{})
	for i := addr.VPN(0); i < 5; i++ {
		tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	entries, cost, ok := tab.LookupBlock(4, 4)
	if !ok || len(entries) != 5 {
		t.Fatalf("entries = %v ok=%v", entries, ok)
	}
	// Gathering a whole s=16 node is one line with 256B lines (§4.4:
	// prefetch penalty is reasonable for clustered tables).
	if cost.Lines != 1 || cost.Nodes != 1 {
		t.Errorf("cost = %+v", cost)
	}
	for i, e := range entries {
		if e.VPN != 0x40+addr.VPN(i) || e.PPN != 0x100+addr.PPN(i) {
			t.Errorf("entry %d = %v", i, e)
		}
	}
}

// TestAppendBlockZeroAlloc pins that a gather into a warmed caller
// buffer allocates nothing: the block-prefetch miss path reuses one
// buffer per owner.
func TestAppendBlockZeroAlloc(t *testing.T) {
	tab := newTable(t, Config{})
	for i := addr.VPN(0); i < 16; i++ {
		tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	buf, _, _ := tab.AppendBlock(nil, 4, 4)
	if n := testing.AllocsPerRun(100, func() { buf, _, _ = tab.AppendBlock(buf[:0], 4, 4) }); n != 0 {
		t.Fatalf("AppendBlock into a warmed buffer: %v allocs, want 0", n)
	}
}

func TestLookupBlockGeometryMismatch(t *testing.T) {
	tab := newTable(t, Config{})
	tab.Map(0x40, 0x100, pte.AttrR)
	if _, _, ok := tab.LookupBlock(8, 3); ok {
		t.Error("mismatched logSBF succeeded")
	}
}

func TestLookupBlockEmpty(t *testing.T) {
	tab := newTable(t, Config{})
	if _, _, ok := tab.LookupBlock(4, 4); ok {
		t.Error("empty block returned entries")
	}
}

func TestLookupBlockPSBAndSuperpage(t *testing.T) {
	tab := newTable(t, Config{})
	tab.MapPartial(4, 0x40, pte.AttrR, 0b1001)
	entries, _, ok := tab.LookupBlock(4, 4)
	if !ok || len(entries) != 2 {
		t.Fatalf("psb entries = %v", entries)
	}
	tab2 := newTable(t, Config{})
	tab2.MapSuperpage(0x40, 0x100, pte.AttrR, addr.Size64K)
	entries, cost, ok := tab2.LookupBlock(4, 4)
	if !ok || len(entries) != 16 || cost.Lines != 1 {
		t.Fatalf("superpage entries = %d cost=%+v", len(entries), cost)
	}
}

func TestBlockStringSmoke(t *testing.T) {
	tab := newTable(t, Config{})
	tab.Map(0x40, 0x100, pte.AttrR)
	if s := tab.blockString(4); s == "" {
		t.Error("empty blockString")
	}
}
