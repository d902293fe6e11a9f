package sim

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// Figure identifies one of the paper's access-time graphs.
type Figure int

// Access-time figures.
const (
	// Fig11a: single-page-size TLB.
	Fig11a Figure = iota
	// Fig11b: superpage TLB (4KB + 64KB).
	Fig11b
	// Fig11c: partial-subblock TLB (factor 16).
	Fig11c
	// Fig11d: complete-subblock TLB (factor 16) with subblock prefetch.
	Fig11d
)

// String names the figure.
func (f Figure) String() string {
	return [...]string{"fig11a", "fig11b", "fig11c", "fig11d"}[f]
}

// TLBKind returns the TLB organization the figure assumes.
func (f Figure) TLBKind() tlb.Kind {
	return [...]tlb.Kind{tlb.SinglePageSize, tlb.Superpage, tlb.PartialSubblock, tlb.CompleteSubblock}[f]
}

// Mode returns the PTE formats the page tables use in the figure. §6.1:
// the complete-subblock TLB needs no special page-table support, so
// Fig11d uses base PTEs.
func (f Figure) Mode() PTEMode {
	return [...]PTEMode{BaseOnly, WithSuperpages, WithPartial, BaseOnly}[f]
}

// Variants returns the page-table organizations the figure compares.
// Linear page tables always appear with the reserved-TLB accounting;
// hashed page tables appear as multiple page tables (4KB searched first)
// when superpage or partial-subblock PTEs are in play (§6.1).
func (f Figure) Variants() []TableVariant {
	lin := TableVariant{Name: "linear", Class: LCLinear, New: variantLinear1, ReservedTLB: 8}
	fwd := TableVariant{Name: "forward-mapped", Class: LCForward, New: variantForward}
	clu := TableVariant{Name: "clustered", Class: LCClustered, New: variantClustered}
	switch f {
	case Fig11b, Fig11c:
		return []TableVariant{lin, fwd,
			{Name: "hashed", Class: LCHashed, New: variantHashedMulti}, clu}
	default:
		return []TableVariant{lin, fwd,
			{Name: "hashed", Class: LCHashed, New: variantHashed}, clu}
	}
}

// AccessConfig parameterizes an access-time run.
type AccessConfig struct {
	// Refs is the workload's total reference count (default 400k),
	// split across processes by RefShare.
	Refs int
	// Entries is the TLB size (default 64, §6.1).
	Entries int
	// LineModel is the cache-line geometry (default 256-byte lines).
	LineModel memcost.Model
	// Seed perturbs the reference streams.
	Seed uint64
	// Buf, when set, is the reusable chunk buffer replay fills; the
	// engine passes each worker's. Nil allocates per run.
	Buf *ReplayBuf
	// ScanTLB runs the simulated TLBs in linear-scan reference mode
	// (tlb.Config.Scan) — results are identical, only speed differs. It
	// exists for the before/after replay benchmarks.
	ScanTLB bool
	// MMU selects the translation hierarchy modelled around each TLB
	// (L2 TLB, page-walk cache). The zero value is the paper's flat
	// single-level hierarchy and reproduces the pre-hierarchy
	// simulator byte for byte.
	MMU MMUConfig
}

func (c *AccessConfig) fill() {
	if c.Refs == 0 {
		c.Refs = 400_000
	}
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.LineModel.LineSize == 0 {
		c.LineModel = memcost.NewModel(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// AccessRow is one workload's bars in one Figure 11 graph.
type AccessRow struct {
	Workload string
	Figure   Figure
	// RefMisses is the miss count of the 64-entry TLB of the figure's
	// kind — the normalization denominator (§6.1).
	RefMisses uint64
	// RefAccesses is the reference count simulated.
	RefAccesses uint64
	// AvgLines maps variant name to average cache lines accessed per
	// (64-entry-TLB) miss.
	AvgLines map[string]float64
	// LinearNested counts nested TLB misses on the linear page table's
	// reserved entries. §6.1 reports the paper's 32-bit workloads never
	// take a nested trap; ours do occasionally when a footprint needs
	// more page-table pages than the eight reserved entries cover.
	LinearNested uint64
}

// RunFigure11 computes one workload's row of a Figure 11 graph.
func RunFigure11(f Figure, p trace.Profile, cfg AccessConfig) (AccessRow, error) {
	return runFigure11(f, p, cfg, runProcess)
}

// processReplay replays one process's references and returns its line
// counts, reference-TLB misses and linear nested misses.
type processReplay func(f Figure, snap trace.ProcessSnapshot, refs int, cfg AccessConfig) (lineCounts, uint64, uint64, error)

// runFigure11 is RunFigure11 over an explicit per-process replay, so
// tests can run the same row assembly over the unmemoized reference
// loop.
func runFigure11(f Figure, p trace.Profile, cfg AccessConfig, run processReplay) (AccessRow, error) {
	cfg.fill()
	row := AccessRow{Workload: p.Name, Figure: f, AvgLines: map[string]float64{}}
	var lines lineCounts

	snaps := p.Snapshot()
	for pi, snap := range snaps {
		refs := int(float64(cfg.Refs) * p.Procs[pi].RefShare)
		if refs == 0 {
			continue
		}
		procLines, misses, nested, err := run(f, snap, refs, cfg)
		if err != nil {
			return row, fmt.Errorf("sim: %s/%s: %w", p.Name, snap.Name, err)
		}
		lines.add(&procLines)
		row.RefMisses += misses
		row.RefAccesses += uint64(refs)
		row.LinearNested += nested
	}
	if row.RefMisses == 0 {
		return row, fmt.Errorf("sim: %s: no TLB misses", p.Name)
	}
	// Names enter the row only here, at report time.
	for _, v := range f.Variants() {
		row.AvgLines[v.Name] = float64(lines[v.Class]) / float64(row.RefMisses)
	}
	return row, nil
}

// figureState is one process's simulation state: the variant page
// tables, the reference TLB, and the linear variants' TLB pairs. The
// replay stages (fig11.go) and the unmemoized reference loop the tests
// keep build it identically; only the loop structure around it differs.
type figureState struct {
	variants []TableVariant
	builds   []*Build
	// canonIdx indexes the canonical (clustered) variant, whose own walk
	// on each miss supplies the reference TLB's refill.
	canonIdx int
	refTLB   *tlb.TLB
	lins     []*linState

	// Multi-level hierarchy state (nil / -1 under the default flat
	// MMUConfig). l2 is the unified L2 TLB shared by the
	// non-reserved-TLB variants — hit/miss outcomes are
	// variant-independent, so one level models all of them — and
	// pwcs[pwcIdx] is the page-walk cache of the single tree-walked
	// variant. Both evolve only on the driver's stream-ordered miss
	// path; the walk stage reads their outcomes from the miss records.
	l2       *swtlb.Cache
	pwcs     []*walkcache.PWC
	pwcIdx   int
	pwcUpper int
}

// newFigureState builds the figure's page tables (one per variant) and
// TLBs for one process snapshot. The variants must include a clustered
// build walked on every miss: it refills the reference TLB.
func newFigureState(f Figure, variants []TableVariant, snap trace.ProcessSnapshot, cfg AccessConfig) (*figureState, error) {
	st := &figureState{variants: variants, canonIdx: -1, pwcIdx: -1}
	mode := f.Mode()

	// builds is index-aligned with variants; the replay loop never keys
	// by name.
	st.builds = make([]*Build, len(st.variants))
	for i, v := range st.variants {
		b, err := BuildProcess(v, mode, snap, cfg.LineModel)
		if err != nil {
			return nil, err
		}
		st.builds[i] = b
		if v.Class == LCClustered && v.ReservedTLB == 0 {
			st.canonIdx = i
		}
	}
	if st.canonIdx < 0 {
		return nil, fmt.Errorf("sim: %v has no clustered variant to refill the reference TLB", f)
	}

	kind := f.TLBKind()
	st.refTLB = tlb.MustNew(tlb.Config{Kind: kind, Entries: cfg.Entries, Scan: cfg.ScanTLB})

	st.l2 = cfg.MMU.newL2(cfg.LineModel)
	if cfg.MMU.PWC {
		st.pwcs = make([]*walkcache.PWC, len(st.variants))
		for i, v := range st.variants {
			if v.ReservedTLB > 0 {
				continue
			}
			uw, ok := st.builds[i].Table.(pagetable.UpperWalker)
			if !ok {
				continue
			}
			if st.pwcIdx >= 0 {
				// The miss records carry exactly one walk-cache
				// hit bit, so one tree-walked variant per figure.
				return nil, fmt.Errorf("sim: multiple walk-cached variants (%q, %q)",
					st.variants[st.pwcIdx].Name, v.Name)
			}
			st.pwcs[i] = cfg.MMU.newPWC(uw)
			st.pwcIdx = i
			st.pwcUpper = uw.UpperWalkCost(0).Lines
		}
		if st.pwcIdx >= 0 {
			// Per-class elision relies on the walk-cached variant owning
			// its accounting class alone.
			for i, v := range st.variants {
				if i != st.pwcIdx && v.Class == st.variants[st.pwcIdx].Class {
					return nil, fmt.Errorf("sim: walk-cached class %v shared by %q", v.Class, v.Name)
				}
			}
		}
	}

	// Linear page tables run their own, smaller TLB plus the reserved
	// page-table-mapping entries (§6.1). Under a multi-level MMU each
	// carries its own L2 slice and nested-walk cache: its L1 stream
	// differs from the reference TLB's, so it cannot share the
	// driver's levels.
	for i, v := range st.variants {
		if v.ReservedTLB == 0 {
			continue
		}
		lt, ok := st.builds[i].Table.(*linear.Table)
		if !ok {
			return nil, fmt.Errorf("reserved-TLB variant %q is not linear", v.Name)
		}
		ls := &linState{
			main:  tlb.MustNew(tlb.Config{Kind: kind, Entries: cfg.Entries - v.ReservedTLB, Scan: cfg.ScanTLB}),
			pt:    tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: v.ReservedTLB, Scan: cfg.ScanTLB}),
			table: lt,
			class: v.Class,
			upper: uint64(lt.UpperWalkCost(0).Lines),
			l2:    cfg.MMU.newL2(cfg.LineModel),
		}
		if cfg.MMU.PWC {
			ls.pwc = cfg.MMU.newPWC(lt)
		}
		st.lins = append(st.lins, ls)
	}
	return st, nil
}

// linState is the linear page table's private TLB pair (§6.1): a main
// TLB shrunk by the reserved entries plus a small TLB caching mappings to
// the page-table pages themselves. Under a multi-level MMU it also owns
// a private L2 TLB and nested-walk cache: its main-TLB miss stream
// differs from the reference TLB's, so the driver's levels cannot be
// shared.
type linState struct {
	main  *tlb.TLB
	pt    *tlb.TLB
	table *linear.Table
	class LineClass
	// upper is the nested-walk line cost. UpperWalkCost is a constant
	// of the table's configuration (levels and upper-walk mode), so it
	// is hoisted out of the replay.
	upper uint64
	l2    *swtlb.Cache
	pwc   *walkcache.PWC
	// blockBuf is the reused block-prefetch gather buffer.
	blockBuf []pte.Entry
}

// pteForLeaf fabricates a TLB entry for a page-table page: only the tag
// matters to the reserved-entry simulation.
func pteForLeaf(vpn addr.VPN) pte.Entry {
	leaf := addr.VPN(linear.LeafPageIndex(vpn))
	return pte.Entry{VPN: leaf, PPN: addr.PPN(leaf), Size: addr.Size4K, Kind: pte.KindBase}
}
