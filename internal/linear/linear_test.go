package linear

import (
	"errors"
	"math/rand"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

func TestLevels(t *testing.T) {
	cases := []struct {
		vaBits uint
		want   int
	}{
		{64, 6}, {52 + 12, 6}, {32, 3}, {21, 1}, {30, 2},
	}
	for _, c := range cases {
		if got := Levels(c.vaBits); got != c.want {
			t.Errorf("Levels(%d) = %d, want %d", c.vaBits, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{VABits: 12}); err == nil {
		t.Error("VABits 12 accepted")
	}
	if _, err := New(Config{LogSBF: 5}); err == nil {
		t.Error("LogSBF 5 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{VABits: 8})
}

func TestMapLookupUnmap(t *testing.T) {
	tab := MustNew(Config{})
	if err := tab.Map(0x41, 0x77, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	e, cost, ok := tab.Lookup(0x41034)
	if !ok || e.PPN != 0x77 {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	// Linear page tables always access one cache line (§6.1).
	if cost.Lines != 1 {
		t.Errorf("lines = %d", cost.Lines)
	}
	if err := tab.Unmap(0x41); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tab.Lookup(0x41034); ok {
		t.Error("hit after unmap")
	}
	if err := tab.Unmap(0x41); !errors.Is(err, pagetable.ErrNotMapped) {
		t.Errorf("err = %v", err)
	}
}

func TestDoubleMapRejected(t *testing.T) {
	tab := MustNew(Config{})
	tab.Map(5, 1, pte.AttrR)
	if err := tab.Map(5, 2, pte.AttrR); !errors.Is(err, pagetable.ErrAlreadyMapped) {
		t.Errorf("err = %v", err)
	}
	// Failed map of a fresh page must not leak a leaf page.
	before := tab.Size()
	tab.Map(5, 2, pte.AttrR)
	if after := tab.Size(); after.Nodes != before.Nodes {
		t.Error("failed map changed size")
	}
}

func TestPageGranularityAllocation(t *testing.T) {
	// §2: PTEs are allocated a page at a time, so one isolated mapping
	// costs a whole 4KB page (plus directories), and space overhead is
	// high for sparse use.
	tab := MustNew(Config{})
	tab.Map(0, 1, pte.AttrR)
	sz := tab.Size()
	// Six levels: 1 leaf page + 5 directory pages.
	if sz.PTEBytes != 6*4096 {
		t.Errorf("PTE bytes = %d, want 24KB", sz.PTEBytes)
	}
	// 512 mappings in one aligned region still use one leaf page.
	for i := addr.VPN(1); i < 512; i++ {
		tab.Map(i, addr.PPN(i), pte.AttrR)
	}
	if got := tab.Size(); got.PTEBytes != sz.PTEBytes {
		t.Errorf("dense fill grew table: %d -> %d", sz.PTEBytes, got.PTEBytes)
	}
	if lv := tab.LevelPages(); lv[0] != 1 || lv[5] != 1 {
		t.Errorf("LevelPages = %v", lv)
	}
}

func TestOneLevelAccounting(t *testing.T) {
	tab := MustNew(Config{OneLevel: true})
	tab.Map(0, 1, pte.AttrR)
	if sz := tab.Size(); sz.PTEBytes != 4096 {
		t.Errorf("1-level PTE bytes = %d", sz.PTEBytes)
	}
	if tab.Name() != "linear-1level" {
		t.Errorf("Name = %q", tab.Name())
	}
}

func TestSparseScatterCostsDirectories(t *testing.T) {
	// Mappings scattered across a 64-bit space populate distinct
	// directory chains — the §7 "6-level numbers" blowup.
	tab := MustNew(Config{})
	rng := rand.New(rand.NewSource(3))
	const n = 32
	for i := 0; i < n; i++ {
		vpn := addr.VPN(rng.Uint64() >> 13) // random 51-bit VPN
		if err := tab.Map(vpn, addr.PPN(i), pte.AttrR); err != nil {
			t.Fatal(err)
		}
	}
	sz := tab.Size()
	// Each isolated mapping needs ~6 pages: far more than hashed's 24B.
	if sz.PTEBytes < n*4*4096 {
		t.Errorf("sparse PTE bytes = %d, expected several pages per mapping", sz.PTEBytes)
	}
	hashedBytes := uint64(n * 24)
	if sz.PTEBytes < hashedBytes*100 {
		t.Errorf("sparse linear (%d) should dwarf hashed (%d)", sz.PTEBytes, hashedBytes)
	}
}

func TestDirectoryRefcounts(t *testing.T) {
	tab := MustNew(Config{})
	// Two leaf pages under one level-2 directory.
	tab.Map(0, 1, pte.AttrR)
	tab.Map(512, 2, pte.AttrR)
	if lv := tab.LevelPages(); lv[0] != 2 || lv[1] != 1 {
		t.Fatalf("LevelPages = %v", lv)
	}
	tab.Unmap(0)
	if lv := tab.LevelPages(); lv[0] != 1 || lv[1] != 1 {
		t.Errorf("after first unmap: %v", lv)
	}
	tab.Unmap(512)
	if lv := tab.LevelPages(); lv[0] != 0 || lv[1] != 0 || lv[5] != 0 {
		t.Errorf("after drain: %v", lv)
	}
}

func TestUpperWalkCost(t *testing.T) {
	tab := MustNew(Config{})
	c := tab.UpperWalkCost(0x41)
	if c.Lines != 5 || !c.NestedMiss {
		t.Errorf("tree walk cost = %+v", c)
	}
	tabH := MustNew(Config{Upper: HashedUpper})
	c = tabH.UpperWalkCost(0x41)
	if c.Lines != 1 || !c.NestedMiss {
		t.Errorf("hashed upper cost = %+v", c)
	}
	tab32 := MustNew(Config{VABits: 32})
	if c := tab32.UpperWalkCost(0x41); c.Lines != 2 {
		t.Errorf("32-bit walk cost = %+v", c)
	}
}

func TestReplicatedSuperpage(t *testing.T) {
	tab := MustNew(Config{})
	if err := tab.MapSuperpage(0x40, 0x100, pte.AttrR, addr.Size64K); err != nil {
		t.Fatal(err)
	}
	// Found like a base PTE, one line, but the entry is a superpage.
	e, cost, ok := tab.Lookup(addr.VAOf(0x4b))
	if !ok || e.Size != addr.Size64K || e.PPN != 0x10b {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	if cost.Lines != 1 {
		t.Errorf("lines = %d (replicate must not change miss penalty)", cost.Lines)
	}
	// No memory savings: the 16 sites exist as if base pages (one page).
	if sz := tab.Size(); sz.Mappings != 16 {
		t.Errorf("mappings = %d", sz.Mappings)
	}
	// Base unmap of one replica demotes the rest to base PTEs and removes
	// just the target page.
	if err := tab.Unmap(0x41); err != nil {
		t.Errorf("unmap err = %v", err)
	}
	if _, _, ok := tab.Lookup(addr.VAOf(0x41)); ok {
		t.Error("unmapped page still resolves")
	}
	e, _, ok = tab.Lookup(addr.VAOf(0x4b))
	if !ok || e.Kind != pte.KindBase || e.PPN != 0x10b {
		t.Fatalf("surviving page after demotion = %v ok=%v", e, ok)
	}
	// The demoted sites are base PTEs now, so UnmapReplicated refuses and
	// base Unmap finishes the teardown.
	if err := tab.UnmapReplicated(0x4b); !errors.Is(err, pagetable.ErrNotMapped) {
		t.Errorf("UnmapReplicated after demotion err = %v", err)
	}
	for v := addr.VPN(0x40); v < 0x50; v++ {
		if v == 0x41 {
			continue
		}
		if err := tab.Unmap(v); err != nil {
			t.Fatalf("unmap %#x: %v", uint64(v), err)
		}
	}
	if sz := tab.Size(); sz.Mappings != 0 || sz.Nodes != 0 {
		t.Errorf("size = %+v", sz)
	}
}

func TestReplicatedSuperpageConflict(t *testing.T) {
	tab := MustNew(Config{})
	tab.Map(0x45, 0x9, pte.AttrR)
	if err := tab.MapSuperpage(0x40, 0x100, pte.AttrR, addr.Size64K); !errors.Is(err, pagetable.ErrAlreadyMapped) {
		t.Errorf("err = %v", err)
	}
	// Atomic: no partial replicas.
	if _, _, ok := tab.Lookup(addr.VAOf(0x40)); ok {
		t.Error("partial replica left")
	}
}

func TestReplicatedPartialSubblock(t *testing.T) {
	tab := MustNew(Config{})
	valid := uint16(0b1011)
	if err := tab.MapPartial(4, 0x40, pte.AttrR, valid); err != nil {
		t.Fatal(err)
	}
	e, cost, ok := tab.Lookup(addr.VAOf(0x41))
	if !ok || e.Kind != pte.KindPartial || e.PPN != 0x41 {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	if cost.Lines != 1 {
		t.Errorf("lines = %d", cost.Lines)
	}
	// Non-resident offsets have invalid PTEs and fault.
	if _, _, ok := tab.Lookup(addr.VAOf(0x42)); ok {
		t.Error("hole hit")
	}
	if sz := tab.Size(); sz.Mappings != 3 {
		t.Errorf("mappings = %d", sz.Mappings)
	}
	if err := tab.UnmapReplicated(0x40); err != nil {
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
	tab2 := MustNew(Config{LogSBF: 2})
	if err := tab2.MapPartial(4, 0x40, pte.AttrR, 1<<5); err == nil {
		t.Error("overwide vector accepted")
	}
}

func TestProtectRange(t *testing.T) {
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 32; i++ {
		tab.Map(i, addr.PPN(i), pte.AttrR|pte.AttrW)
	}
	cost, err := tab.ProtectRange(addr.PageRange(0, 16), 0, pte.AttrW)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Probes != 16 {
		t.Errorf("probes = %d", cost.Probes)
	}
	for i := addr.VPN(0); i < 32; i++ {
		e, _, _ := tab.Lookup(addr.VAOf(i))
		if w := e.Attr.Has(pte.AttrW); w != (i >= 16) {
			t.Errorf("page %d writable = %v", i, w)
		}
	}
}

func TestLookupBlockAdjacent(t *testing.T) {
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 16; i++ {
		tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	entries, cost, ok := tab.LookupBlock(4, 4)
	if !ok || len(entries) != 16 {
		t.Fatalf("entries = %d ok=%v", len(entries), ok)
	}
	// Sixteen adjacent 8-byte PTEs: 128 bytes, one 256-byte line (§4.4).
	if cost.Lines != 1 {
		t.Errorf("lines = %d", cost.Lines)
	}
	if _, _, ok := tab.LookupBlock(0x4000, 4); ok {
		t.Error("empty block returned entries")
	}
}

// TestAppendBlockZeroAlloc pins that a gather into a warmed caller
// buffer allocates nothing: the block-prefetch miss path reuses one
// buffer per owner.
func TestAppendBlockZeroAlloc(t *testing.T) {
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 16; i++ {
		tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	buf, _, _ := tab.AppendBlock(nil, 4, 4)
	if n := testing.AllocsPerRun(100, func() { buf, _, _ = tab.AppendBlock(buf[:0], 4, 4) }); n != 0 {
		t.Fatalf("AppendBlock into a warmed buffer: %v allocs, want 0", n)
	}
}

func TestStats(t *testing.T) {
	tab := MustNew(Config{})
	tab.Map(1, 1, pte.AttrR)
	tab.Lookup(addr.VAOf(1))
	tab.Lookup(addr.VAOf(2))
	tab.Unmap(1)
	st := tab.Stats()
	if st.Inserts != 1 || st.Lookups != 2 || st.LookupFails != 1 || st.Removes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRandomOpsAgainstModel(t *testing.T) {
	tab := MustNew(Config{VABits: 40})
	model := map[addr.VPN]addr.PPN{}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 4000; step++ {
		vpn := addr.VPN(rng.Intn(2048))
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
