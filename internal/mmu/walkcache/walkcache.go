// Package walkcache implements a page-walk cache (PWC): a small,
// fully-associative, true-LRU cache of upper-walk node translations,
// the structure modern MMUs use to short-circuit the upper levels of a
// tree walk. One entry covers the span of pages that share a last
// upper-level node (a leaf node of the forward-mapped tree, a
// page-table page of the linear table), so a hit elides the constant
// upper-walk cost — exactly the quantity the organizations export
// through pagetable.UpperWalker — leaving only the leaf access.
//
// Hashed organizations have no upper levels to elide; a walk cache in
// front of one is a no-op, which is itself one of the hierarchy
// experiment's findings.
package walkcache

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pagetable"
)

// Config parameterizes a page-walk cache.
type Config struct {
	// Entries is the number of cached upper-walk nodes (default 16,
	// the scale of real PWCs).
	Entries int
	// LogSpan is log2 of the base pages one cached node covers: 8 for
	// the forward-mapped tree's 256-entry leaf nodes, 9 for the linear
	// table's 512-PTE page-table pages. Default 8.
	LogSpan uint
}

func (c *Config) fill() error {
	if c.Entries == 0 {
		c.Entries = 16
	}
	if c.Entries < 1 || c.Entries > 1<<12 {
		return fmt.Errorf("walkcache: entries %d out of range", c.Entries)
	}
	if c.LogSpan == 0 {
		c.LogSpan = 8
	}
	if c.LogSpan > addr.VPNBits {
		return fmt.Errorf("walkcache: LogSpan %d wider than a VPN", c.LogSpan)
	}
	return nil
}

// PWC is a page-walk cache over one table's upper-walk structure. Like
// the TLB models, it is single-threaded with strictly deterministic
// victim selection (first invalid slot in index order, else the oldest
// LRU tick): replayed in stream order it always evicts the same
// entries, so the staged and reference replays agree byte for byte.
type PWC struct {
	cfg   Config
	upper pagetable.UpperWalker

	tags  []uint64
	valid []bool
	lru   []uint64
	tick  uint64
	stats mmu.Stats
}

// New creates a page-walk cache for the table's upper-walk structure.
func New(cfg Config, upper pagetable.UpperWalker) (*PWC, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if upper == nil {
		return nil, fmt.Errorf("walkcache: nil upper walker")
	}
	return &PWC{
		cfg:   cfg,
		upper: upper,
		tags:  make([]uint64, cfg.Entries),
		valid: make([]bool, cfg.Entries),
		lru:   make([]uint64, cfg.Entries),
	}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, upper pagetable.UpperWalker) *PWC {
	p, err := New(cfg, upper)
	if err != nil {
		panic(err)
	}
	return p
}

// Name identifies the level in reports.
func (p *PWC) Name() string { return "pwc" }

// UpperLines returns the hoisted constant line count a hit elides —
// the replay's walk stage applies it with ElideLines instead of
// re-filtering.
func (p *PWC) UpperLines() int { return p.upper.UpperWalkCost(0).Lines }

// Probe looks up the upper-walk node covering vpn, filling the cache
// on a miss (the walk that follows loads the node). It must be called
// in stream order; the fill-on-miss is what makes a PWC's state a pure
// function of the miss stream.
func (p *PWC) Probe(vpn addr.VPN) bool {
	tag := uint64(vpn) >> p.cfg.LogSpan
	p.tick++
	p.stats.Accesses++
	victim := 0
	for i := range p.tags {
		if !p.valid[i] {
			if p.valid[victim] {
				victim = i
			}
			continue
		}
		if p.tags[i] == tag {
			p.lru[i] = p.tick
			p.stats.Hits++
			return true
		}
		if p.valid[victim] && p.lru[i] < p.lru[victim] {
			victim = i
		}
	}
	p.stats.Misses++
	if p.valid[victim] {
		p.stats.Replacements++
	}
	p.valid[victim] = true
	p.tags[victim] = tag
	p.lru[victim] = p.tick
	return false
}

// ElideLines applies a walk-cache hit to a full walk's line count: the
// upper levels drop out, the leaf access (at least one line) remains.
// Walks that terminated early (a superpage PTE at an intermediate node)
// clamp at one line — the model charges the hit no less than the leaf.
func ElideLines(lines, upper int) int {
	if lines-upper < 1 {
		return 1
	}
	return lines - upper
}

// FilterWalk implements mmu.WalkFilter: probe for vpn's upper-walk
// node and, on a hit, elide the upper-walk portion of cost.
func (p *PWC) FilterWalk(vpn addr.VPN, cost pagetable.WalkCost) pagetable.WalkCost {
	if !p.Probe(vpn) {
		return cost
	}
	up := p.upper.UpperWalkCost(vpn)
	cost.Lines = ElideLines(cost.Lines, up.Lines)
	cost.Nodes = ElideLines(cost.Nodes, up.Nodes)
	return cost
}

// Invalidate drops the cached node covering vpn (a page-table write to
// that node's span).
func (p *PWC) Invalidate(vpn addr.VPN) {
	tag := uint64(vpn) >> p.cfg.LogSpan
	for i := range p.tags {
		if p.valid[i] && p.tags[i] == tag {
			p.valid[i] = false
		}
	}
}

// Flush implements mmu.WalkFilter: the shootdown empties the cache.
func (p *PWC) Flush() {
	for i := range p.valid {
		p.valid[i] = false
	}
}

// Stats reports probe traffic in the unified per-level shape.
func (p *PWC) Stats() mmu.Stats { return p.stats }

// ResetStats clears the traffic counters, keeping contents.
func (p *PWC) ResetStats() { p.stats = mmu.Stats{} }

var (
	_ mmu.WalkFilter  = (*PWC)(nil)
	_ mmu.Invalidator = (*PWC)(nil)
)
