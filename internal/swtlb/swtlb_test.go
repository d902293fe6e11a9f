package swtlb

import (
	"fmt"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/hashed"
	"clusterpt/internal/pte"
)

// Aliases keep the hashed-backing test terse.
type clusterptVPN = addr.VPN
type clusterptPPN = addr.PPN

func newBacked(t *testing.T, cfg Config) (*Cache, *core.Table) {
	t.Helper()
	backing := core.MustNew(core.Config{})
	c, err := New(cfg, backing)
	if err != nil {
		t.Fatal(err)
	}
	return c, backing
}

func TestConfigValidation(t *testing.T) {
	backing := core.MustNew(core.Config{})
	bad := []Config{
		{Entries: 100},
		{Entries: 8, Ways: 3},
		{LogSBF: 9},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, backing); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil backing accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{Entries: 5}, backing)
}

func TestHitCostsOneLine(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	if err := c.Map(0x41, 0x77, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	// First lookup misses and fills.
	e, cost, ok := c.Lookup(0x41034)
	if !ok || e.PPN != 0x77 {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	if cost.Probes < 2 {
		t.Errorf("miss cost = %+v, want probe + backing walk", cost)
	}
	// Second lookup hits: exactly one line.
	e, cost, ok = c.Lookup(0x41034)
	if !ok || e.PPN != 0x77 {
		t.Fatalf("hit entry = %v ok=%v", e, ok)
	}
	if cost.Lines != 1 || cost.Probes != 1 {
		t.Errorf("hit cost = %+v, want 1 line", cost)
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMissOnUnmappedFaults(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	if _, _, ok := c.Lookup(0x99000); ok {
		t.Error("unmapped hit")
	}
}

func TestEvictionLRU(t *testing.T) {
	// Direct-mapped with 4 sets: VPNs 0 and 4 collide.
	c, _ := newBacked(t, Config{Entries: 4, Ways: 1})
	c.Map(0, 1, pte.AttrR)
	c.Map(4, 2, pte.AttrR)
	c.Lookup(addr.VAOf(0)) // fill
	c.Lookup(addr.VAOf(4)) // evicts 0
	_, _, _ = c.Lookup(addr.VAOf(0))
	st := c.CacheStats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (conflict evictions)", st.Misses)
	}
	// Two ways eliminate the conflict.
	c2, _ := newBacked(t, Config{Entries: 4, Ways: 2})
	c2.Map(0, 1, pte.AttrR)
	c2.Map(4, 2, pte.AttrR)
	c2.Lookup(addr.VAOf(0))
	c2.Lookup(addr.VAOf(4))
	c2.Lookup(addr.VAOf(0))
	c2.Lookup(addr.VAOf(4))
	if st := c2.CacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("2-way stats = %+v", st)
	}
}

func TestUnmapInvalidates(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	c.Map(0x41, 0x77, pte.AttrR)
	c.Lookup(addr.VAOf(0x41))
	if err := c.Unmap(0x41); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Lookup(addr.VAOf(0x41)); ok {
		t.Error("stale cached translation survived unmap")
	}
}

func TestProtectRangeInvalidates(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	c.Map(0x41, 0x77, pte.AttrR|pte.AttrW)
	c.Lookup(addr.VAOf(0x41))
	if _, err := c.ProtectRange(addr.PageRange(addr.VAOf(0x41), 1), 0, pte.AttrW); err != nil {
		t.Fatal(err)
	}
	e, _, ok := c.Lookup(addr.VAOf(0x41))
	if !ok || e.Attr.Has(pte.AttrW) {
		t.Errorf("entry = %v ok=%v, stale attributes served", e, ok)
	}
}

func TestInvalidateAll(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	c.Map(0x41, 0x77, pte.AttrR)
	c.Lookup(addr.VAOf(0x41))
	c.InvalidateAll()
	c.Lookup(addr.VAOf(0x41))
	if st := c.CacheStats(); st.Misses != 2 {
		t.Errorf("misses = %d", st.Misses)
	}
}

func TestClusteredEntriesPrefetchBlock(t *testing.T) {
	// §7: a software TLB with clustered entries caches the whole block;
	// neighbors hit without touching the backing table.
	c, backing := newBacked(t, Config{Entries: 64, Clustered: true})
	for i := addr.VPN(0); i < 16; i++ {
		backing.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	c.Lookup(addr.VAOf(0x41)) // miss fills the block
	for i := addr.VPN(0); i < 16; i++ {
		e, cost, ok := c.Lookup(addr.VAOf(0x40 + i))
		if !ok || e.PPN != 0x100+addr.PPN(i) {
			t.Fatalf("page %d = %v ok=%v", i, e, ok)
		}
		if cost.Probes != 1 {
			t.Errorf("page %d cost = %+v, want swTLB hit", i, cost)
		}
	}
	if st := c.CacheStats(); st.Misses != 1 || st.Hits != 16 {
		t.Errorf("stats = %+v", st)
	}
}

func TestClusteredPartialBlockHoles(t *testing.T) {
	c, backing := newBacked(t, Config{Entries: 64, Clustered: true})
	backing.Map(0x40, 0x100, pte.AttrR)
	c.Lookup(addr.VAOf(0x40))
	if _, _, ok := c.Lookup(addr.VAOf(0x41)); ok {
		t.Error("hole hit through clustered swTLB entry")
	}
}

// TestClusteredReusedSlotDropsOldBlock pins that a slot handed to a new
// block keeps none of its previous block's words: each slot's words are
// a fixed slab window the fill overwrites in place.
func TestClusteredReusedSlotDropsOldBlock(t *testing.T) {
	c, backing := newBacked(t, Config{Entries: 1, Clustered: true})
	for i := addr.VPN(0); i < 16; i++ {
		backing.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	backing.Map(0x50, 0x200, pte.AttrR)
	c.Lookup(addr.VAOf(0x40)) // fills the only slot with a full block
	c.Lookup(addr.VAOf(0x50)) // reuses it for a one-page block
	if e, _, ok := c.Probe(addr.VAOf(0x50)); !ok || e.PPN != 0x200 {
		t.Fatalf("new block page = %v ok=%v", e, ok)
	}
	for i := addr.VPN(1); i < 16; i++ {
		if e, _, ok := c.Probe(addr.VAOf(0x50 + i)); ok {
			t.Fatalf("offset %d of the new block hit with the old block's word: %v", i, e)
		}
	}
}

// TestInsertZeroAlloc pins that a warmed software TLB fills without
// allocating, plain and Clustered: slot words are fixed slab windows and
// the Clustered gather reuses a Cache-owned buffer. The cycle touches
// four times as many blocks as the cache has entries, so every fill
// reuses an evicted slot.
func TestInsertZeroAlloc(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			c, backing := newBacked(t, Config{Entries: 8, Ways: 2, Clustered: clustered})
			var es []pte.Entry
			for vpn := addr.VPN(0); vpn < 32*16; vpn++ {
				ppn := 0x1000 + addr.PPN(vpn)
				if err := backing.Map(vpn, ppn, pte.AttrR); err != nil {
					t.Fatal(err)
				}
				es = append(es, pte.Entry{VPN: vpn, PPN: ppn, Attr: pte.AttrR, Size: addr.Size4K})
			}
			cycle := func() {
				for _, e := range es {
					c.Insert(e)
				}
			}
			cycle() // warm: the gather buffer at its working size
			if n := testing.AllocsPerRun(20, cycle); n != 0 {
				t.Fatalf("%d fills: %v allocs per cycle, want 0", len(es), n)
			}
		})
	}
}

func TestClusteredInvalidateSinglePage(t *testing.T) {
	c, backing := newBacked(t, Config{Entries: 64, Clustered: true})
	for i := addr.VPN(0); i < 4; i++ {
		backing.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	c.Lookup(addr.VAOf(0x40))
	c.Unmap(0x41)
	if _, _, ok := c.Lookup(addr.VAOf(0x41)); ok {
		t.Error("stale block word served")
	}
	// Other pages in the block still hit.
	if _, cost, ok := c.Lookup(addr.VAOf(0x42)); !ok || cost.Probes != 1 {
		t.Errorf("neighbor cost = %+v ok=%v", cost, ok)
	}
}

func TestWorksOverHashedBacking(t *testing.T) {
	backing := hashed.MustNew(hashed.Config{})
	c := MustNew(Config{Entries: 64}, backing)
	c.Map(0x41, 0x9, pte.AttrR)
	if e, _, ok := c.Lookup(addr.VAOf(0x41)); !ok || e.PPN != 0x9 {
		t.Errorf("entry = %v ok=%v", e, ok)
	}
	if c.Name() != "swtlb+hashed" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestSizeIncludesFixedArray(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 128})
	sz := c.Size()
	if sz.FixedBytes < 128*16 {
		t.Errorf("fixed bytes = %d", sz.FixedBytes)
	}
	cc, _ := newBacked(t, Config{Entries: 128, Clustered: true})
	if cc.Size().FixedBytes <= sz.FixedBytes {
		t.Error("clustered entries should be larger")
	}
}

func TestSuperpageBackingCachedPerPage(t *testing.T) {
	c, backing := newBacked(t, Config{Entries: 64})
	backing.MapSuperpage(0x40, 0x100, pte.AttrR, addr.Size64K)
	e, _, ok := c.Lookup(addr.VAOf(0x45))
	if !ok || e.PPN != 0x105 {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	// Cached hit returns the same frame.
	e, cost, ok := c.Lookup(addr.VAOf(0x45))
	if !ok || e.PPN != 0x105 || cost.Probes != 1 {
		t.Errorf("hit = %v cost=%+v ok=%v", e, cost, ok)
	}
}

func TestClusteredFillWithoutBlockReader(t *testing.T) {
	// A backing table without BlockReader (the multi-table hashed
	// organization) still works under clustered swTLB entries: only the
	// faulting page fills; neighbors miss to the backing table.
	backing := hashed.MustNewMulti(hashed.Config{}, 4, hashed.BaseFirst)
	for i := clusterptVPN(0); i < 4; i++ {
		if err := backing.Map(0x40+i, 0x100+clusterptPPN(i), pte.AttrR); err != nil {
			t.Fatal(err)
		}
	}
	c := MustNew(Config{Entries: 64, Clustered: true}, backing)
	if _, _, ok := c.Lookup(addr.VAOf(0x41)); !ok {
		t.Fatal("first lookup missed")
	}
	// Neighbor not gathered: next lookup goes to the backing table but
	// still succeeds and fills its slot.
	e, _, ok := c.Lookup(addr.VAOf(0x42))
	if !ok || e.PPN != 0x102 {
		t.Fatalf("neighbor = %v ok=%v", e, ok)
	}
	st := c.CacheStats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (no block gather without BlockReader)", st.Misses)
	}
}
