package service

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// cachedSlot is one live translation-cache entry, for post-quiesce
// audits.
type cachedSlot struct {
	slot int
	vpn  addr.VPN
	e    pte.Entry
}

// cachedEntries snapshots every translation f's cache holds. Callers
// must be quiescent.
func cachedEntries(f *frontEnd) []cachedSlot {
	var out []cachedSlot
	for i := range f.slots {
		if key := f.slots[i].key.Load(); key != 0 {
			vpn := addr.VPN(key - 1)
			var e pte.Entry
			if f.slots[i].load(vpn, &e) {
				out = append(out, cachedSlot{slot: i, vpn: vpn, e: e})
			}
		}
	}
	return out
}

func TestSlotRoundTrip(t *testing.T) {
	if n := unsafe.Sizeof(stripe{}); n != 64 {
		t.Errorf("stripe is %d bytes, want one 64-byte line", n)
	}
	if n := unsafe.Sizeof(slot{}); n != 64 {
		t.Errorf("slot is %d bytes, want one 64-byte line", n)
	}
	// The slot carries every pte.Entry field; a new field must be added
	// to slot.store and slot.load before this count changes.
	if n := reflect.TypeOf(pte.Entry{}).NumField(); n != 7 {
		t.Fatalf("pte.Entry has %d fields; the slot encodes 7", n)
	}
	vpn := addr.VPN(1)<<52 - 1
	want := pte.Entry{
		VPN:       vpn,
		PPN:       addr.PPN(1)<<52 - 3,
		Attr:      pte.AttrMask,
		Size:      addr.Size16M,
		Kind:      pte.KindSuperpage,
		ValidMask: 0xa5c3,
		BlockPPN:  addr.PPN(1)<<52 - 16,
	}
	var sl slot
	sl.store(vpn, &want)
	var got pte.Entry
	if !sl.load(vpn, &got) || got != want {
		t.Fatalf("load = %+v; want %+v", got, want)
	}
	if sl.load(vpn-1, &got) {
		t.Error("load of another VPN hit")
	}
	sl.clear(vpn - 1)
	if !sl.load(vpn, &got) {
		t.Error("clear of another VPN emptied the slot")
	}
	sl.clear(vpn)
	if sl.load(vpn, &got) {
		t.Error("load hit after clear")
	}
	// VPN 0 is a real page; the empty slot must not cache it.
	if sl.load(0, &got) {
		t.Error("empty slot hit VPN 0")
	}
	// A zero Size round-trips; entries the slot cannot carry exactly
	// are not cached at all.
	want = pte.Entry{VPN: 7, PPN: 9, Attr: pte.AttrR}
	sl.store(7, &want)
	if !sl.load(7, &got) || got != want {
		t.Errorf("zero-size load = %+v; want %+v", got, want)
	}
	for _, bad := range []pte.Entry{{VPN: 8, PPN: 9, Size: addr.Size4K}, {VPN: 7, PPN: 9, Size: 3 << 12}} {
		sl.store(7, &bad)
		if !sl.load(7, &got) || got != want {
			t.Errorf("store of %+v replaced the slot: load = %+v", bad, got)
		}
	}
}

// slotStressLayout is the clustered table the slot stress test serves:
// one page block of base pages, a block-sized 64KB superpage, a 16KB
// superpage inside a full node, and a partial-subblock block, so that
// colliding slots carry entries that differ in every word.
var slotStressLayout = []struct {
	kind  pte.Kind
	vpn   addr.VPN
	ppn   addr.PPN
	attr  pte.Attr
	size  addr.Size
	valid uint16
}{
	{pte.KindBase, 0x100, 0x5000, pte.AttrR | pte.AttrW, addr.Size64K, 0},
	{pte.KindSuperpage, 0x200, 0x7000, pte.AttrR | pte.AttrX, addr.Size64K, 0},
	{pte.KindSuperpage, 0x304, 0x9004, pte.AttrR, addr.Size16K, 0},
	{pte.KindPartial, 0x400, 0xb000, pte.AttrR | pte.AttrW | pte.AttrU, 0, 0x5a5a},
}

// populateSlotStress installs the layout, each block under its stripe
// lock; pages already mapped by a racing writer are left alone.
func populateSlotStress(t *testing.T, s *Service, tab *core.Table) {
	for _, m := range slotStressLayout {
		var err error
		switch m.kind {
		case pte.KindBase:
			_, err = s.MapRange(m.vpn, m.ppn, m.size.Pages(), m.attr)
		case pte.KindSuperpage:
			mu := s.stripeFor(m.vpn)
			mu.Lock()
			err = tab.MapSuperpage(m.vpn, m.ppn, m.attr, m.size)
			mu.Unlock()
		case pte.KindPartial:
			vpbn, _ := addr.BlockSplit(m.vpn, tab.LogSBF())
			mu := s.stripeFor(m.vpn)
			mu.Lock()
			err = tab.MapPartial(vpbn, m.ppn, m.attr, m.valid)
			mu.Unlock()
		}
		if err != nil && !errors.Is(err, pagetable.ErrAlreadyMapped) {
			t.Errorf("populate %v at %#x: %v", m.kind, uint64(m.vpn), err)
		}
	}
}

// TestSlotStress is the seqlock slot's torn-read and coherence test. A
// one- or two-slot cache makes every VPN of the layout collide, and
// readers race fills of other VPNs, page unmap/remap, whole-block
// protection toggles (which never demote) and full resets. Every hit
// must return, in all seven fields, an entry the table gives for that
// VPN: the entry itself or the one with the toggled bit. After the
// storm every cached entry must equal the table's entry exactly.
func TestSlotStress(t *testing.T) {
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			stressSlots(t, slots)
		})
	}
}

func stressSlots(t *testing.T, slots int) {
	const toggle = pte.AttrSW0
	tab := core.MustNew(core.Config{Buckets: 64})
	s := MustWrap(tab, Config{Stripes: 4, CacheSlots: slots})
	populateSlotStress(t, s, tab)

	allowed := map[addr.VPN][2]pte.Entry{}
	var vpns []addr.VPN
	for _, m := range slotStressLayout {
		base, _ := addr.BlockSplit(m.vpn, tab.LogSBF())
		first := addr.BlockJoin(base, 0, tab.LogSBF())
		for i := addr.VPN(0); i < 16; i++ {
			e, _, ok := tab.Lookup(addr.VAOf(first + i))
			if !ok {
				continue
			}
			flipped := e
			flipped.Attr ^= toggle
			allowed[first+i] = [2]pte.Entry{e, flipped}
			vpns = append(vpns, first+i)
		}
	}
	if len(vpns) < 40 {
		t.Fatalf("layout mapped only %d pages", len(vpns))
	}

	readers, rounds := 4, 10000
	if testing.Short() {
		rounds = 2000
	}
	var hits, fills [8]int
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			x := uint64(r)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < rounds; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				vpn := vpns[x%uint64(len(vpns))]
				// Repeats turn the fill into hits that race the other
				// readers' fills of colliding VPNs.
				for rep := 0; rep < 3; rep++ {
					var e pte.Entry
					_, o := s.lookup(addr.VAOf(vpn)+addr.V(x&0xfff), &e)
					switch o {
					case fault:
						continue
					case hit:
						hits[r]++
					case fill:
						fills[r]++
					}
					if a := allowed[vpn]; e != a[0] && e != a[1] {
						t.Errorf("%s of vpn %#x returned %+v; the table gives %+v or %+v",
							[...]string{hit: "hit", fill: "fill"}[o], uint64(vpn), e, a[0], a[1])
						return
					}
				}
			}
		}(r)
	}
	var writers sync.WaitGroup
	writers.Add(3)
	go func() { // page unmap/remap in the base block
		defer writers.Done()
		m := slotStressLayout[0]
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			off := addr.VPN(i % 16)
			if err := s.Unmap(m.vpn + off); err != nil && !errors.Is(err, pagetable.ErrNotMapped) {
				t.Errorf("unmap: %v", err)
			}
			if err := s.Map(m.vpn+off, m.ppn+addr.PPN(off), m.attr); err != nil && !errors.Is(err, pagetable.ErrAlreadyMapped) {
				t.Errorf("map: %v", err)
			}
		}
	}()
	go func() { // whole-block protection toggles
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			m := slotStressLayout[i%len(slotStressLayout)]
			vpbn, _ := addr.BlockSplit(m.vpn, tab.LogSBF())
			r := addr.PageRange(addr.VAOf(addr.BlockJoin(vpbn, 0, tab.LogSBF())), 16)
			set, clear := toggle, pte.AttrNone
			if i/len(slotStressLayout)%2 == 1 {
				set, clear = clear, set
			}
			if err := s.Protect(r, set, clear); err != nil {
				t.Errorf("protect: %v", err)
			}
		}
	}()
	go func() { // full resets, each followed by a repopulate
		defer writers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s.Reset()
			populateSlotStress(t, s, tab)
			// Let the readers hit the repopulated table for a while.
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(done)
	writers.Wait()

	var nh, nf int
	for r := 0; r < readers; r++ {
		nh += hits[r]
		nf += fills[r]
	}
	if nh == 0 || nf == 0 {
		t.Errorf("stress took %d hits and %d fills; both paths must race", nh, nf)
	}
	for _, c := range cachedEntries(&s.frontEnd) {
		e, _, ok := tab.Lookup(addr.VAOf(c.vpn))
		if !ok || e != c.e {
			t.Errorf("slot %d caches %v for vpn %#x; table gives %v, %v", c.slot, c.e, uint64(c.vpn), e, ok)
		}
	}
}

// TestLookupAllocs pins both read paths of Service.Lookup and
// Node.Lookup at zero allocations. Two pages share a one-slot cache, so
// alternating them makes every lookup a miss and a fill.
func TestLookupAllocs(t *testing.T) {
	cfg := Config{Stripes: 4, CacheSlots: 1}
	build := func(int) (pagetable.PageTable, error) { return core.MustNew(core.Config{Buckets: 64}), nil }
	s := MustWrap(core.MustNew(core.Config{Buckets: 64}), cfg)
	r := MustNewReplicated(ReplicatedConfig{Config: cfg, Replicas: 2}, build)
	vas := [2]addr.V{addr.VAOf(0x100), addr.VAOf(0x2345)}
	for i, va := range vas {
		if err := s.Map(addr.VPNOf(va), addr.PPN(0x700+i), pte.AttrR); err != nil {
			t.Fatal(err)
		}
		if err := r.Map(addr.VPNOf(va), addr.PPN(0x700+i), pte.AttrR); err != nil {
			t.Fatal(err)
		}
	}
	node := r.Node(1)
	const runs = 200
	for _, c := range []struct {
		name   string
		lookup func(addr.V) (pte.Entry, bool)
		counts func() (hits, fills uint64)
	}{
		{"Service", s.Lookup, func() (uint64, uint64) { st := s.Stats(); return st.Hits, st.Fills }},
		{"Node", node.Lookup, func() (uint64, uint64) { c := node.Cost(); return c.Hits, c.Fills }},
	} {
		t.Run(c.name+"/hit", func(t *testing.T) {
			c.lookup(vas[0])
			h0, _ := c.counts()
			if allocs := testing.AllocsPerRun(runs, func() {
				if _, ok := c.lookup(vas[0]); !ok {
					t.Fatal("hit path missed")
				}
			}); allocs != 0 {
				t.Errorf("hit path allocates %.1f allocs/op, want 0", allocs)
			}
			if h, _ := c.counts(); h-h0 != runs+1 {
				t.Errorf("%d of %d lookups hit", h-h0, runs+1)
			}
		})
		t.Run(c.name+"/fill", func(t *testing.T) {
			_, f0 := c.counts()
			i := 1 // vas[0] is cached by the hit subtest
			if allocs := testing.AllocsPerRun(runs, func() {
				if _, ok := c.lookup(vas[i&1]); !ok {
					t.Fatal("fill path missed")
				}
				i++
			}); allocs != 0 {
				t.Errorf("miss-and-fill path allocates %.1f allocs/op, want 0", allocs)
			}
			if _, f := c.counts(); f-f0 != runs+1 {
				t.Errorf("%d of %d lookups filled", f-f0, runs+1)
			}
		})
	}
}
