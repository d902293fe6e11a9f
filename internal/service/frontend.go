package service

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// outcome classifies one front-end lookup; it indexes stripe.counts.
type outcome int

const (
	hit   outcome = iota // served from the translation cache
	fill                 // walked the table and cached the result
	fault                // walked the table and found no mapping
)

// stripe is one page-block write lock plus the lookup outcomes counted
// against its blocks, padded to a 64-byte line. Counting a lookup into
// its own block's stripe writes the line that block's miss path already
// writes (the read lock) and no line another block's lookups write.
type stripe struct {
	mu     sync.RWMutex
	counts [3]atomic.Uint64 // indexed by outcome
	_      [16]byte
}

// slot is one translation-cache entry: a sequence word guarding four
// payload words, padded to a 64-byte line so fills of one slot never
// invalidate a reader of its neighbour. The sequence is odd while a fill
// or clear owns the slot. key is the entry's VPN+1, which doubles as the
// tag (0 is empty); meta packs Attr, ValidMask, Kind and log2(Size)+1
// (0 for a zero Size).
type slot struct {
	seq, key, ppn, blockPPN, meta atomic.Uint64
	_                             [24]byte
}

func keyOf(vpn addr.VPN) uint64 { return uint64(vpn) + 1 }

// load copies the entry cached for vpn into e and reports a hit. A
// slot owned by a fill or clear (odd sequence), holding another VPN, or
// rewritten while being read (sequence changed) reads as a miss, so a
// hit always yields exactly the entry one fill stored. e is written
// field by field: pte.Entry is too wide for the compiler to keep in
// registers, and a stack copy of it assembled from narrow stores would
// stall store forwarding on every hit.
func (sl *slot) load(vpn addr.VPN, e *pte.Entry) bool {
	seq := sl.seq.Load()
	if seq&1 != 0 || sl.key.Load() != keyOf(vpn) {
		return false
	}
	ppn, blockPPN, meta := sl.ppn.Load(), sl.blockPPN.Load(), sl.meta.Load()
	if sl.seq.Load() != seq {
		return false
	}
	e.VPN, e.PPN, e.BlockPPN = vpn, addr.PPN(ppn), addr.PPN(blockPPN)
	e.Attr, e.ValidMask, e.Kind = pte.Attr(meta), uint16(meta>>16), pte.Kind(meta>>32)
	e.Size = 0
	if sh := meta >> 40; sh != 0 {
		e.Size = addr.Size(1) << (sh - 1)
	}
	return true
}

// store publishes e as vpn's translation. An entry the slot cannot
// carry exactly — one naming another VPN, or with a Size that is not a
// power of two — is not cached. A fill that finds the slot owned, or
// loses the race to own it, skips: only a fill or clear of a different
// VPN can hold it (vpn's own fills and clears serialize on its stripe),
// so skipping costs a later refill, never coherence.
func (sl *slot) store(vpn addr.VPN, e *pte.Entry) {
	if e.VPN != vpn || e.Size&(e.Size-1) != 0 {
		return
	}
	meta := uint64(e.Attr) | uint64(e.ValidMask)<<16 | uint64(e.Kind)<<32
	if e.Size != 0 {
		meta |= uint64(bits.TrailingZeros64(uint64(e.Size))+1) << 40
	}
	seq := sl.seq.Load()
	if seq&1 != 0 || !sl.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	sl.key.Store(keyOf(vpn))
	sl.ppn.Store(uint64(e.PPN))
	sl.blockPPN.Store(uint64(e.BlockPPN))
	sl.meta.Store(meta)
	sl.seq.Store(seq + 2)
}

// clear empties the slot if it holds vpn. The caller holds vpn's
// stripe exclusively, so no fill of vpn is in flight: an owned slot, or
// a lost race to own it, means a fill of another VPN is displacing
// whatever the slot held, and there is nothing left to clear.
func (sl *slot) clear(vpn addr.VPN) {
	seq := sl.seq.Load()
	if seq&1 == 0 && sl.key.Load() == keyOf(vpn) && sl.seq.CompareAndSwap(seq, seq+1) {
		sl.key.Store(0)
		sl.seq.Store(seq + 2)
	}
}

// frontEnd is the lookup front end shared by Service and by every
// replica of a Replicated table: the wrapped table, its stripe locks,
// the translation cache and the optional hierarchy model, with the one
// hit/fill/MMU read path.
type frontEnd struct {
	cfg Config
	// table's mapped state may only be read or mutated under the stripe
	// covering the touched page block; the pointer itself is write-once.
	table   pagetable.PageTable //ptlint:guardedby stripes[*].mu
	stripes []stripe
	slots   []slot
	// mmuh, when attached, is the modeled hardware translation hierarchy
	// in front of the table: every resolved lookup drives it and every
	// write-path invalidation shoots it down. Atomic so AttachMMU is safe
	// against in-flight traffic; nil costs one atomic load per operation.
	mmuh atomic.Pointer[mmu.Shared]
}

func newFrontEnd(table pagetable.PageTable, cfg Config) frontEnd {
	return frontEnd{
		cfg:     cfg,
		table:   table,
		stripes: make([]stripe, cfg.Stripes),
		slots:   make([]slot, cfg.CacheSlots),
	}
}

// stripeIndex returns the stripe covering vpn's page block. All pages
// of one block — and therefore one clustered hash node — share a stripe.
func (f *frontEnd) stripeIndex(vpn addr.VPN) uint64 {
	return pagetable.HashVPN(uint64(vpn)>>f.cfg.LogBlock) & uint64(f.cfg.Stripes-1)
}

// stripeFor returns the lock covering vpn's page block.
func (f *frontEnd) stripeFor(vpn addr.VPN) *sync.RWMutex {
	return &f.stripes[f.stripeIndex(vpn)].mu
}

// Name implements PageTable.
//
//ptlint:allow guardedby Name reads immutable organization metadata, never mapped state
func (f *frontEnd) Name() string { return f.table.Name() }

// AttachMMU attaches a modeled hardware translation hierarchy. Once
// attached, Lookup feeds every resolved translation through
// h.Translate (probe, walk-filter and fill under Shared's own mutex),
// every write-path invalidation is forwarded as a shootdown, and Reset
// issues a whole-hierarchy h.Shootdown — so h.Stats()/h.LevelStats()
// report what the composed TLB stack would have done over the
// concurrent traffic. Attach before or during traffic; detach by
// attaching nil.
func (f *frontEnd) AttachMMU(h *mmu.Shared) { f.mmuh.Store(h) }

// MMU returns the attached hierarchy model, or nil.
func (f *frontEnd) MMU() *mmu.Shared { return f.mmuh.Load() }

// MemStats reports the wrapped table's measured arena occupancy, or a
// zero value if the organization does not implement
// pagetable.MemReporter. Safe to call concurrently with traffic — the
// arenas keep their stats in atomics.
func (f *frontEnd) MemStats() pagetable.MemStats {
	//ptlint:allow guardedby arena stats are atomics; no stripe needed for a monitoring read
	if mr, ok := f.table.(pagetable.MemReporter); ok {
		return mr.MemStats()
	}
	return pagetable.MemStats{}
}

func (f *frontEnd) slotFor(vpn addr.VPN) *slot {
	return &f.slots[pagetable.HashVPN(uint64(vpn))&uint64(f.cfg.CacheSlots-1)]
}

// lookup resolves va into e and reports how, with the walk's line
// count on a miss. The hit path is lock-free and writes nothing. A miss
// walks the table under the stripe's read lock and fills the slot and
// the hierarchy model inside that critical section, so a writer on the
// stripe cannot order its invalidation between the walk and the fill.
func (f *frontEnd) lookup(va addr.V, e *pte.Entry) (int, outcome) {
	vpn := addr.VPNOf(va)
	sl := f.slotFor(vpn)
	if sl.load(vpn, e) {
		// A hit resolved without touching table memory, so the modeled
		// hierarchy is driven with a zero walk cost; a racing
		// invalidation may land after the slot load, the same staleness
		// window a real TLB has between a fill and its shootdown.
		if h := f.mmuh.Load(); h != nil {
			h.Translate(va, *e, pagetable.WalkCost{})
		}
		return 0, hit
	}
	mu := f.stripeFor(vpn)
	mu.RLock()
	var cost pagetable.WalkCost
	var ok bool
	*e, cost, ok = f.table.Lookup(va)
	if ok {
		sl.store(vpn, e)
		if h := f.mmuh.Load(); h != nil {
			h.Translate(va, *e, cost)
		}
	}
	mu.RUnlock()
	if !ok {
		return cost.Lines, fault
	}
	return cost.Lines, fill
}

// countedLookup is lookup with its outcome counted in the stripe of
// va's page block: the read path of Service and Replicated.
func (f *frontEnd) countedLookup(va addr.V, e *pte.Entry) bool {
	_, o := f.lookup(va, e)
	f.stripes[f.stripeIndex(addr.VPNOf(va))].counts[o].Add(1)
	return o != fault
}

// addLookups folds the per-stripe lookup counts into st.
func (f *frontEnd) addLookups(st *Stats) {
	for i := range f.stripes {
		c := &f.stripes[i].counts
		st.Hits += c[hit].Load()
		st.Fills += c[fill].Load()
		st.Faults += c[fault].Load()
	}
}

// reset rewinds the table (when it implements pagetable.Resetter),
// empties every slot, flushes the hierarchy model and zeroes the lookup
// counts. The caller holds every stripe exclusively, so no fill or
// clear owns a slot and every clear succeeds.
func (f *frontEnd) reset() {
	if r, ok := f.table.(pagetable.Resetter); ok {
		r.Reset()
	}
	for i := range f.slots {
		if key := f.slots[i].key.Load(); key != 0 {
			f.slots[i].clear(addr.VPN(key - 1))
		}
	}
	if h := f.mmuh.Load(); h != nil {
		h.Shootdown()
	}
	for i := range f.stripes {
		for j := range f.stripes[i].counts {
			f.stripes[i].counts[j].Store(0)
		}
	}
}
