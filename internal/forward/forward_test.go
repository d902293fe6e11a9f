package forward

import (
	"errors"
	"math/rand"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{LevelBits: []uint{0}}); err == nil {
		t.Error("zero-width level accepted")
	}
	if _, err := New(Config{LevelBits: []uint{20}}); err == nil {
		t.Error("20-bit level accepted")
	}
	if _, err := New(Config{LevelBits: []uint{16, 16, 16, 16}}); err == nil {
		t.Error("64-bit VPN coverage accepted")
	}
	if _, err := New(Config{LogSBF: 9}); err == nil {
		t.Error("LogSBF 9 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{LevelBits: []uint{0}})
}

func TestSevenLevelWalkCost(t *testing.T) {
	// §2: seven memory references per TLB miss on the 64-bit tree.
	tab := MustNew(Config{})
	if tab.NumLevels() != 7 {
		t.Fatalf("levels = %d", tab.NumLevels())
	}
	if err := tab.Map(0x41, 0x77, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	e, cost, ok := tab.Lookup(0x41034)
	if !ok || e.PPN != 0x77 {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	if cost.Nodes != 7 || cost.Lines != 7 {
		t.Errorf("cost = %+v, want 7 nodes / 7 lines", cost)
	}
}

func TestThreeLevel32Bit(t *testing.T) {
	tab := MustNew(Config{LevelBits: Default32LevelBits})
	tab.Map(0x41, 0x77, pte.AttrR)
	_, cost, ok := tab.Lookup(0x41034)
	if !ok || cost.Lines != 3 {
		t.Errorf("cost = %+v ok=%v", cost, ok)
	}
	if tab.Name() != "forward-3level" {
		t.Errorf("Name = %q", tab.Name())
	}
}

func TestFailedLookupStopsAtMissingChild(t *testing.T) {
	tab := MustNew(Config{})
	tab.Map(0x41, 0x77, pte.AttrR)
	// An address sharing no tree path beyond the root fails at level 1.
	_, cost, ok := tab.Lookup(0x8000000000000000)
	if ok || cost.Nodes != 1 {
		t.Errorf("cost = %+v ok=%v", cost, ok)
	}
}

func TestUnmapPrunesTree(t *testing.T) {
	tab := MustNew(Config{})
	tab.Map(0x41, 0x77, pte.AttrR)
	nodes := tab.NodesAtLevels()
	for lvl, n := range nodes {
		if n != 1 {
			t.Errorf("level %d nodes = %d", lvl, n)
		}
	}
	if err := tab.Unmap(0x41); err != nil {
		t.Fatal(err)
	}
	nodes = tab.NodesAtLevels()
	for lvl := 1; lvl < len(nodes); lvl++ {
		if nodes[lvl] != 0 {
			t.Errorf("level %d not pruned: %d", lvl, nodes[lvl])
		}
	}
	if sz := tab.Size(); sz.Mappings != 0 {
		t.Errorf("size = %+v", sz)
	}
}

func TestSizeAccounting(t *testing.T) {
	// Table 2: Σ n_i × 8 × Nactive(pb_i). One mapping populates one node
	// per level: 16×8 root + 6 × 256×8.
	tab := MustNew(Config{})
	tab.Map(0x41, 0x77, pte.AttrR)
	want := uint64(16*8 + 6*256*8)
	if sz := tab.Size(); sz.PTEBytes != want {
		t.Errorf("PTE bytes = %d, want %d", sz.PTEBytes, want)
	}
}

func TestDoubleMapAndMissingUnmap(t *testing.T) {
	tab := MustNew(Config{})
	tab.Map(7, 1, pte.AttrR)
	if err := tab.Map(7, 2, pte.AttrR); !errors.Is(err, pagetable.ErrAlreadyMapped) {
		t.Errorf("err = %v", err)
	}
	if err := tab.Unmap(8); !errors.Is(err, pagetable.ErrNotMapped) {
		t.Errorf("err = %v", err)
	}
}

func TestReplicatedSuperpage(t *testing.T) {
	tab := MustNew(Config{})
	if err := tab.MapSuperpage(0x40, 0x100, pte.AttrR, addr.Size64K); err != nil {
		t.Fatal(err)
	}
	e, cost, ok := tab.Lookup(addr.VAOf(0x4f))
	if !ok || e.Size != addr.Size64K || e.PPN != 0x10f {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	// Replication leaves the walk cost unchanged.
	if cost.Lines != 7 {
		t.Errorf("lines = %d", cost.Lines)
	}
	// Base unmap of one replica demotes the rest to base PTEs and removes
	// just the target page.
	if err := tab.Unmap(0x40); err != nil {
		t.Errorf("unmap err = %v", err)
	}
	if _, _, ok := tab.Lookup(addr.VAOf(0x40)); ok {
		t.Error("unmapped page still resolves")
	}
	e, _, ok = tab.Lookup(addr.VAOf(0x4f))
	if !ok || e.Kind != pte.KindBase || e.PPN != 0x10f {
		t.Fatalf("surviving page after demotion = %v ok=%v", e, ok)
	}
	// The demoted sites are base PTEs, so UnmapReplicated refuses them.
	if err := tab.UnmapReplicated(0x42); !errors.Is(err, pagetable.ErrNotMapped) {
		t.Errorf("UnmapReplicated after demotion err = %v", err)
	}
	for v := addr.VPN(0x41); v < 0x50; v++ {
		if err := tab.Unmap(v); err != nil {
			t.Fatalf("unmap %#x: %v", uint64(v), err)
		}
	}
	if sz := tab.Size(); sz.Mappings != 0 {
		t.Errorf("size = %+v", sz)
	}
}

func TestIntermediateNodeSuperpage(t *testing.T) {
	tab := MustNew(Config{})
	// With level bits {4,8,8,8,8,8,8}, the level above the leaves covers
	// 256 pages per entry: a 1MB superpage.
	sizes := tab.IntermediateSizes()
	has1M := false
	for _, s := range sizes {
		if s == addr.Size1M {
			has1M = true
		}
	}
	if !has1M {
		t.Fatalf("IntermediateSizes = %v, want 1MB", sizes)
	}
	if err := tab.MapSuperpageAtNode(0x100, 0x200, pte.AttrR, addr.Size1M); err != nil {
		t.Fatal(err)
	}
	e, cost, ok := tab.Lookup(addr.VAOf(0x1ab))
	if !ok || e.Size != addr.Size1M || e.PPN != 0x2ab {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	// The walk terminates at level 6 of 7: six lines, not seven.
	if cost.Lines != 6 {
		t.Errorf("lines = %d, want 6 (early termination)", cost.Lines)
	}
	// 64KB does not correspond to any level in this tree.
	if err := tab.MapSuperpageAtNode(0x1040, 0x3000, pte.AttrR, addr.Size64K); !errors.Is(err, pagetable.ErrUnsupported) {
		t.Errorf("64KB err = %v", err)
	}
	// Mapping a base page under the superpage is rejected.
	if err := tab.Map(0x150, 0x9, pte.AttrR); !errors.Is(err, pagetable.ErrAlreadyMapped) {
		t.Errorf("covered map err = %v", err)
	}
	if err := tab.UnmapSuperpageAtNode(0x100, addr.Size1M); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tab.Lookup(addr.VAOf(0x1ab)); ok {
		t.Error("hit after node superpage removal")
	}
}

func TestReplicatedPartialSubblock(t *testing.T) {
	tab := MustNew(Config{})
	if err := tab.MapPartial(4, 0x40, pte.AttrR, 0b110); err != nil {
		t.Fatal(err)
	}
	e, _, ok := tab.Lookup(addr.VAOf(0x42))
	if !ok || e.Kind != pte.KindPartial || e.PPN != 0x42 {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	if _, _, ok := tab.Lookup(addr.VAOf(0x40)); ok {
		t.Error("hole hit")
	}
	if sz := tab.Size(); sz.Mappings != 2 {
		t.Errorf("mappings = %d", sz.Mappings)
	}
	if err := tab.UnmapReplicated(0x41); err != nil {
		t.Fatal(err)
	}
	if sz := tab.Size(); sz.Mappings != 0 {
		t.Errorf("size = %+v", sz)
	}
}

func TestMapPartialValidation(t *testing.T) {
	tab := MustNew(Config{})
	if err := tab.MapPartial(4, 0x40, pte.AttrR, 0); err == nil {
		t.Error("empty vector accepted")
	}
	if err := tab.MapPartial(4, 0x41, pte.AttrR, 1); !errors.Is(err, pagetable.ErrMisaligned) {
		t.Errorf("err = %v", err)
	}
}

func TestProtectRange(t *testing.T) {
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 8; i++ {
		tab.Map(i, addr.PPN(i), pte.AttrR|pte.AttrW)
	}
	cost, err := tab.ProtectRange(addr.PageRange(0, 8), 0, pte.AttrW)
	if err != nil {
		t.Fatal(err)
	}
	// One full walk per page: 8 probes × 7 levels.
	if cost.Probes != 8 || cost.Nodes != 56 {
		t.Errorf("cost = %+v", cost)
	}
	for i := addr.VPN(0); i < 8; i++ {
		if e, _, _ := tab.Lookup(addr.VAOf(i)); e.Attr.Has(pte.AttrW) {
			t.Errorf("page %d writable", i)
		}
	}
}

func TestLookupBlockAdjacency(t *testing.T) {
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 16; i++ {
		tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	entries, cost, ok := tab.LookupBlock(4, 4)
	if !ok || len(entries) != 16 {
		t.Fatalf("entries = %d ok=%v", len(entries), ok)
	}
	// Six intermediate lines + one leaf line for the contiguous gather.
	if cost.Lines != 7 {
		t.Errorf("lines = %d", cost.Lines)
	}
	if _, _, ok := tab.LookupBlock(0x999999, 4); ok {
		t.Error("empty block gather succeeded")
	}
}

// TestAppendBlockZeroAlloc pins that a gather into a warmed caller
// buffer allocates nothing, through the leaf and through an
// intermediate-node superpage: the block-prefetch miss path reuses one
// buffer per owner.
func TestAppendBlockZeroAlloc(t *testing.T) {
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 16; i++ {
		tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	tab.MapSuperpageAtNode(0x100000, 0x200, pte.AttrR, addr.Size1M)
	for _, vpbn := range []addr.VPBN{4, 0x10000} {
		buf, _, ok := tab.AppendBlock(nil, vpbn, 4)
		if !ok || len(buf) != 16 {
			t.Fatalf("AppendBlock(%#x) = %d entries ok=%v, want 16", uint64(vpbn), len(buf), ok)
		}
		if n := testing.AllocsPerRun(100, func() { buf, _, _ = tab.AppendBlock(buf[:0], vpbn, 4) }); n != 0 {
			t.Fatalf("AppendBlock(%#x) into a warmed buffer: %v allocs, want 0", uint64(vpbn), n)
		}
	}
}

func TestLookupBlockThroughNodeSuperpage(t *testing.T) {
	tab := MustNew(Config{})
	tab.MapSuperpageAtNode(0x100, 0x200, pte.AttrR, addr.Size1M)
	entries, cost, ok := tab.LookupBlock(0x10, 4) // block 0x10 = vpn 0x100..
	if !ok || len(entries) != 16 {
		t.Fatalf("entries = %d ok=%v", len(entries), ok)
	}
	if cost.Lines >= 7 {
		t.Errorf("lines = %d, want early termination", cost.Lines)
	}
}

func TestRandomOpsAgainstModel(t *testing.T) {
	tab := MustNew(Config{LevelBits: Default32LevelBits})
	model := map[addr.VPN]addr.PPN{}
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 4000; step++ {
		vpn := addr.VPN(rng.Intn(4096))
		switch rng.Intn(3) {
		case 0:
			ppn := addr.PPN(rng.Intn(1 << 20))
			err := tab.Map(vpn, ppn, pte.AttrR)
			if _, exists := model[vpn]; exists != (err != nil) {
				t.Fatalf("step %d: map exists=%v err=%v", step, exists, err)
			}
			if err == nil {
				model[vpn] = ppn
			}
		case 1:
			err := tab.Unmap(vpn)
			if _, exists := model[vpn]; exists != (err == nil) {
				t.Fatalf("step %d: unmap exists=%v err=%v", step, exists, err)
			}
			delete(model, vpn)
		case 2:
			e, _, ok := tab.Lookup(addr.VAOf(vpn))
			want, exists := model[vpn]
			if ok != exists || (ok && e.PPN != want) {
				t.Fatalf("step %d: lookup mismatch", step)
			}
		}
	}
	if got := tab.Size().Mappings; got != uint64(len(model)) {
		t.Errorf("mappings = %d, model %d", got, len(model))
	}
}
