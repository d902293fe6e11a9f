package tlb

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pte"
)

// Partitioned wraps k per-shard TLB slices behind the serial TLB's
// access/insert surface. The aggregate capacity equals the serial
// configuration's Entries (split as evenly as k allows, remainder to
// the lowest-numbered slices), every slice keeps the serial victim
// policy (fully-associative true LRU, invalid-first), and duplicate
// tags are resolved structurally: the route function is a pure function
// of the address, so a tag can be resident in exactly one slice and two
// slices can never disagree about a translation.
//
// Partitioned is a model for what-if experiments, not a drop-in
// replacement for the serial TLB on the figure path: true LRU couples
// regions through replacement, so per-shard slices reproduce the serial
// miss counts only for region-disjoint streams whose per-shard working
// sets fit their slices (no capacity contention — the replacement
// policy never has to choose between regions). diff tests pin both the
// equivalence in that regime and a contention counterexample; DESIGN.md
// §10 states the contract. The serial TLB remains the reference model
// everywhere results are rendered.
type Partitioned struct {
	parts  []*TLB
	route  func(addr.V) int
	logSBF uint
}

// NewPartitioned builds k slices of cfg's organization whose entry
// counts sum to cfg.Entries. route maps an address to its owning slice
// in [0, k) and must be a pure function of the address; routing the
// same page to different slices at different times would duplicate
// tags across slices and break the aggregate-capacity accounting.
// k must not exceed cfg.Entries (a slice needs at least one entry).
func NewPartitioned(cfg Config, k int, route func(addr.V) int) (*Partitioned, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("tlb: partition into %d slices", k)
	}
	if k > cfg.Entries {
		return nil, fmt.Errorf("tlb: %d slices over %d entries leaves empty slices", k, cfg.Entries)
	}
	if route == nil {
		if k != 1 {
			return nil, fmt.Errorf("tlb: %d slices need a route function", k)
		}
		route = func(addr.V) int { return 0 }
	}
	p := &Partitioned{route: route, logSBF: cfg.LogSBF}
	base, rem := cfg.Entries/k, cfg.Entries%k
	for i := 0; i < k; i++ {
		c := cfg
		c.Entries = base
		if i < rem {
			c.Entries++
		}
		t, err := New(c)
		if err != nil {
			return nil, err
		}
		p.parts = append(p.parts, t)
	}
	return p, nil
}

// K returns the slice count.
func (p *Partitioned) K() int { return len(p.parts) }

// Name implements mmu.Level.
func (p *Partitioned) Name() string {
	return fmt.Sprintf("%s/%dway", p.parts[0].Name(), len(p.parts))
}

// Part returns slice i, for per-shard replay loops that bind a slice to
// one shard's sub-stream directly instead of routing every access.
func (p *Partitioned) Part(i int) *TLB { return p.parts[i] }

// Access routes va to its slice and looks it up there.
func (p *Partitioned) Access(va addr.V) Result {
	return p.parts[p.route(va)].Access(va)
}

// Insert routes the translation to the slice owning its page.
func (p *Partitioned) Insert(e pte.Entry) {
	p.parts[p.route(addr.VAOf(e.VPN))].Insert(e)
}

// InsertBlock routes a complete-subblock prefetch to the slice owning
// the block's base page. The route function must map a block's pages to
// one slice for block entries to stay whole.
func (p *Partitioned) InsertBlock(vpbn addr.VPBN, entries []pte.Entry) {
	base := addr.VPN(uint64(vpbn) << p.logSBF)
	p.parts[p.route(addr.VAOf(base))].InsertBlock(vpbn, entries)
}

// Flush invalidates every slice.
func (p *Partitioned) Flush() {
	for _, t := range p.parts {
		t.Flush()
	}
}

// Invalidate routes the single-page shootdown to the slice owning vpn.
func (p *Partitioned) Invalidate(vpn addr.VPN) {
	p.parts[p.route(addr.VAOf(vpn))].Invalidate(vpn)
}

// Stats returns the aggregate traffic counters, summed over slices in
// index order.
func (p *Partitioned) Stats() Stats {
	var s Stats
	for _, t := range p.parts {
		ps := t.Stats()
		s.Accesses += ps.Accesses
		s.Hits += ps.Hits
		s.Misses += ps.Misses
		s.BlockMisses += ps.BlockMisses
		s.SubblockMisses += ps.SubblockMisses
		s.Replacements += ps.Replacements
	}
	return s
}

// ResetStats clears every slice's counters, keeping contents.
func (p *Partitioned) ResetStats() {
	for _, t := range p.parts {
		t.ResetStats()
	}
}

var (
	_ mmu.Level       = (*Partitioned)(nil)
	_ mmu.Invalidator = (*Partitioned)(nil)
)
