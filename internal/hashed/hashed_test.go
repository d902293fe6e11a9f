package hashed

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

func TestMapLookupUnmap(t *testing.T) {
	tab := MustNew(Config{})
	if err := tab.Map(0x41, 0x77, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	e, cost, ok := tab.Lookup(0x41034)
	if !ok || e.PPN != 0x77 || e.Kind != pte.KindBase {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	if cost.Nodes != 1 || cost.Lines != 1 {
		t.Errorf("cost = %+v", cost)
	}
	if sz := tab.Size(); sz.PTEBytes != 24 || sz.Mappings != 1 {
		t.Errorf("size = %+v", sz)
	}
	if err := tab.Unmap(0x41); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tab.Lookup(0x41034); ok {
		t.Error("hit after unmap")
	}
	if err := tab.Unmap(0x41); !errors.Is(err, pagetable.ErrNotMapped) {
		t.Errorf("unmap err = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Buckets: 100}); err == nil {
		t.Error("non-pow2 buckets accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{Buckets: 3})
}

func TestDoubleMapRejected(t *testing.T) {
	tab := MustNew(Config{})
	tab.Map(0x41, 1, pte.AttrR)
	if err := tab.Map(0x41, 2, pte.AttrR); !errors.Is(err, pagetable.ErrAlreadyMapped) {
		t.Errorf("err = %v", err)
	}
}

func TestFixedOverheadPerPTE(t *testing.T) {
	// §2: sixteen bytes of overhead for each eight bytes of mapping
	// information, regardless of density.
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 100; i++ {
		if err := tab.Map(i*977, addr.PPN(i), pte.AttrR); err != nil {
			t.Fatal(err)
		}
	}
	if sz := tab.Size(); sz.PTEBytes != 100*24 {
		t.Errorf("PTE bytes = %d", sz.PTEBytes)
	}
}

func TestPackedPTE(t *testing.T) {
	// §7: packing tag and next into eight bytes reduces size by 33%.
	tab := MustNew(Config{PackedPTE: true})
	for i := addr.VPN(0); i < 10; i++ {
		tab.Map(i, addr.PPN(i), pte.AttrR)
	}
	if sz := tab.Size(); sz.PTEBytes != 10*16 {
		t.Errorf("packed PTE bytes = %d", sz.PTEBytes)
	}
	// The number of cache lines per miss is unchanged.
	_, cost, ok := tab.Lookup(addr.VAOf(5))
	if !ok || cost.Lines != 1 {
		t.Errorf("cost = %+v", cost)
	}
	if tab.Name() != "hashed-packed" {
		t.Errorf("Name = %q", tab.Name())
	}
}

func TestChainCost(t *testing.T) {
	tab := MustNew(Config{Buckets: 1})
	for i := addr.VPN(0); i < 4; i++ {
		tab.Map(i, addr.PPN(i), pte.AttrR)
	}
	// LIFO chain: vpn 0 is deepest.
	_, cost, ok := tab.Lookup(addr.VAOf(0))
	if !ok || cost.Nodes != 4 || cost.Lines != 4 {
		t.Errorf("cost = %+v", cost)
	}
	// Failed search scans everything.
	_, cost, ok = tab.Lookup(addr.VAOf(99))
	if ok || cost.Nodes != 4 {
		t.Errorf("failed cost = %+v", cost)
	}
}

func TestChainStatsLoadFactor(t *testing.T) {
	tab := MustNew(Config{Buckets: 64})
	for i := addr.VPN(0); i < 256; i++ {
		tab.Map(i, addr.PPN(i), pte.AttrR)
	}
	alpha, maxChain := tab.ChainStats()
	if alpha != 4.0 {
		t.Errorf("alpha = %v", alpha)
	}
	if maxChain < 1 {
		t.Errorf("maxChain = %d", maxChain)
	}
	// Average successful search should approach 1 + α/2 (Table 2).
	var totalNodes, lookups uint64
	for i := addr.VPN(0); i < 256; i++ {
		_, cost, ok := tab.Lookup(addr.VAOf(i))
		if !ok {
			t.Fatal("lost mapping")
		}
		totalNodes += uint64(cost.Nodes)
		lookups++
	}
	avg := float64(totalNodes) / float64(lookups)
	want := 1 + 4.0/2
	if avg < want*0.7 || avg > want*1.3 {
		t.Errorf("avg probe length %v, Knuth predicts ~%v", avg, want)
	}
}

func TestProtectRangeProbesPerPage(t *testing.T) {
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 32; i++ {
		tab.Map(0x40+i, addr.PPN(i), pte.AttrR|pte.AttrW)
	}
	cost, err := tab.ProtectRange(addr.PageRange(addr.VAOf(0x40), 32), 0, pte.AttrW)
	if err != nil {
		t.Fatal(err)
	}
	// One hash probe per base page — 16x the clustered cost (§3.1).
	if cost.Probes != 32 {
		t.Errorf("probes = %d, want 32", cost.Probes)
	}
	for i := addr.VPN(0); i < 32; i++ {
		e, _, _ := tab.Lookup(addr.VAOf(0x40 + i))
		if e.Attr.Has(pte.AttrW) {
			t.Errorf("page %d still writable", i)
		}
	}
}

func TestLookupBlockIsExpensive(t *testing.T) {
	// §4.4: subblock prefetch from a hashed table needs one probe per
	// base page — sixteen probes for factor 16.
	tab := MustNew(Config{})
	for i := addr.VPN(0); i < 16; i++ {
		tab.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	entries, cost, ok := tab.LookupBlock(4, 4)
	if !ok || len(entries) != 16 {
		t.Fatalf("entries = %d ok=%v", len(entries), ok)
	}
	if cost.Probes != 16 {
		t.Errorf("probes = %d, want 16", cost.Probes)
	}
	if cost.Lines < 16 {
		t.Errorf("lines = %d, want ≥16", cost.Lines)
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

func TestStatsCounting(t *testing.T) {
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

func TestConcurrentUse(t *testing.T) {
	tab := MustNew(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := addr.VPN(w) << 20
			for i := addr.VPN(0); i < 200; i++ {
				if err := tab.Map(base+i, addr.PPN(i)+1, pte.AttrR); err != nil {
					t.Error(err)
					return
				}
				if _, _, ok := tab.Lookup(addr.VAOf(base + i)); !ok {
					t.Error("lost mapping")
					return
				}
			}
			for i := addr.VPN(0); i < 200; i++ {
				tab.Unmap(base + i)
			}
		}(w)
	}
	wg.Wait()
	if sz := tab.Size(); sz.Mappings != 0 {
		t.Errorf("final size = %+v", sz)
	}
}

func TestRandomOpsAgainstModel(t *testing.T) {
	tab := MustNew(Config{Buckets: 16})
	model := map[addr.VPN]addr.PPN{}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 4000; step++ {
		vpn := addr.VPN(rng.Intn(512))
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
