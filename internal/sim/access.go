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
	// Shards is the intra-cell lane budget: 0 or 1 replays serially,
	// k > 1 runs the fan-out/merge pipeline (shard.go) across k
	// goroutine lanes. Results are byte-identical at every value — the
	// pipeline is an exact functional decomposition of the serial
	// replay, not an approximation (DESIGN.md §10).
	Shards int
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
	cfg.fill()
	row := AccessRow{Workload: p.Name, Figure: f, AvgLines: map[string]float64{}}
	var lines lineCounts

	snaps := p.Snapshot()
	for pi, snap := range snaps {
		refs := int(float64(cfg.Refs) * p.Procs[pi].RefShare)
		if refs == 0 {
			continue
		}
		procLines, misses, accesses, nested, err := runProcess(f, snap, refs, cfg)
		if err != nil {
			return row, fmt.Errorf("sim: %s/%s: %w", p.Name, snap.Name, err)
		}
		lines.add(&procLines)
		row.RefMisses += misses
		row.RefAccesses += accesses
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
// serial and sharded replay paths build it identically; only the loop
// structure around it differs.
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
	// path, which is what keeps sharded replay deterministic.
	l2       *swtlb.Cache
	pwcs     []*walkcache.PWC
	pwcIdx   int
	pwcUpper int

	// blockBuf is the block-prefetch gather buffer reused by every
	// non-canonical variant walk, and canonBuf the canonical variant's,
	// which must survive the later variants' gathers to fill the TLB.
	// Reusing both keeps the miss path allocation-free.
	blockBuf []pte.Entry
	canonBuf []pte.Entry
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
				// The sharded miss records carry exactly one walk-cache
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
	// differs from the reference TLB's, so sharing the driver's levels
	// would entangle the lanes.
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
			l2:    cfg.MMU.newL2(cfg.LineModel),
		}
		if cfg.MMU.PWC {
			ls.pwc = cfg.MMU.newPWC(lt)
		}
		st.lins = append(st.lins, ls)
	}
	return st, nil
}

// runProcess drives one process's trace through the figure's TLB and
// page tables. With cfg.Shards > 1 it hands the replay to the sharded
// fan-out/merge pipeline; the results are identical either way.
func runProcess(f Figure, snap trace.ProcessSnapshot, refs int, cfg AccessConfig) (lineCounts, uint64, uint64, uint64, error) {
	if cfg.Shards > 1 {
		return runProcessSharded(f, snap, refs, cfg, cfg.Shards)
	}

	var lines lineCounts
	st, err := newFigureState(f, f.Variants(), snap, cfg)
	if err != nil {
		return lines, 0, 0, 0, err
	}

	gen := trace.NewGenerator(snap, cfg.Seed*31+1)
	var misses, nested uint64
	err = replay(gen, cfg.Buf, refs, func(va addr.V) error {
		res := st.refTLB.Access(va)
		if !res.Hit {
			misses++
			if err := serviceMiss(f, va, res, st, &lines); err != nil {
				return err
			}
		}
		for _, ls := range st.lins {
			n, err := serviceLinear(f, va, ls, &lines)
			if err != nil {
				return err
			}
			nested += n
		}
		return nil
	})
	if err != nil {
		return lineCounts{}, 0, 0, 0, err
	}
	return lines, misses, uint64(refs), nested, nil
}

// serviceMiss services one reference-TLB miss: under a multi-level MMU
// it probes the L2 first (an L2 hit refills the L1 with the base page
// and skips every walk); on a full miss it walks every non-linear page
// table for the faulting address — eliding the tree-walked variant's
// upper levels on a page-walk-cache hit — and refills the reference
// TLB (and the L2) with what the canonical (clustered) variant's own
// walk returned, so no table is walked twice.
func serviceMiss(f Figure, va addr.V, res tlb.Result, st *figureState, lines *lineCounts) error {
	vpn := addr.VPNOf(va)
	if st.l2 != nil {
		// The probe itself costs one line per modelled hierarchy,
		// charged to every non-linear variant hit or miss.
		for _, v := range st.variants {
			if v.ReservedTLB == 0 {
				lines[v.Class] += l2ProbeLines
			}
		}
		if st.l2.Access(va).Hit {
			st.refTLB.Insert(baseRefill(vpn))
			return nil
		}
	}
	pwcHit := false
	if st.pwcIdx >= 0 {
		pwcHit = st.pwcs[st.pwcIdx].Probe(vpn)
	}

	if f == Fig11d && !res.SubblockMiss {
		// Block miss with prefetch: gather the whole block (§4.4).
		vpbn, _ := addr.BlockSplit(vpn, 4)
		for i, v := range st.variants {
			if v.ReservedTLB > 0 {
				continue
			}
			br, ok := st.builds[i].Table.(pagetable.BlockReader)
			if !ok {
				return fmt.Errorf("variant %q cannot prefetch blocks", v.Name)
			}
			buf := &st.blockBuf
			if i == st.canonIdx {
				buf = &st.canonBuf
			}
			entries, cost, found := br.AppendBlock((*buf)[:0], vpbn, 4)
			if !found {
				return fmt.Errorf("variant %q lost block %#x", v.Name, uint64(vpbn))
			}
			*buf = entries
			l := cost.Lines
			if pwcHit && i == st.pwcIdx {
				l = walkcache.ElideLines(l, st.pwcUpper)
			}
			lines[v.Class] += uint64(l)
		}
		st.refTLB.InsertBlock(vpbn, st.canonBuf)
		if st.l2 != nil {
			for _, e := range st.canonBuf {
				st.l2.Insert(e)
			}
		}
		return nil
	}

	var refill pte.Entry
	for i, v := range st.variants {
		if v.ReservedTLB > 0 {
			continue
		}
		e, cost, ok := st.builds[i].Table.Lookup(va)
		if !ok {
			return fmt.Errorf("variant %q lost vpn %#x", v.Name, uint64(vpn))
		}
		if i == st.canonIdx {
			refill = e
		}
		l := cost.Lines
		if pwcHit && i == st.pwcIdx {
			l = walkcache.ElideLines(l, st.pwcUpper)
		}
		lines[v.Class] += uint64(l)
	}
	st.refTLB.Insert(refill)
	if st.l2 != nil {
		st.l2.Insert(refill)
	}
	return nil
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
	l2    *swtlb.Cache
	pwc   *walkcache.PWC
	// blockBuf is the reused block-prefetch gather buffer.
	blockBuf []pte.Entry
}

// serviceLinear advances the linear variant's TLBs for one reference. A
// main-TLB miss costs one leaf-PTE line; a nested miss on the page-table
// page's mapping adds the upper-level walk. The resulting line count is
// later normalized by the 64-entry TLB's misses, charging the
// opportunity cost of the reserved entries exactly as §6.1 does.
func serviceLinear(f Figure, va addr.V, ls *linState, lines *lineCounts) (uint64, error) {
	res := ls.main.Access(va)
	if res.Hit {
		return 0, nil
	}
	vpn := addr.VPNOf(va)

	if ls.l2 != nil {
		lines[ls.class] += l2ProbeLines
		if ls.l2.Access(va).Hit {
			// An L2 hit hands the base translation straight up: no PTE
			// array read, no nested page-table-page translation.
			ls.main.Insert(baseRefill(vpn))
			return 0, nil
		}
	}

	if f == Fig11d && !res.SubblockMiss {
		// Block miss with prefetch: the block's PTEs are adjacent in the
		// PTE array.
		vpbn, _ := addr.BlockSplit(vpn, 4)
		entries, cost, ok := ls.table.AppendBlock(ls.blockBuf[:0], vpbn, 4)
		if !ok {
			return 0, fmt.Errorf("linear lost block %#x", uint64(vpbn))
		}
		ls.blockBuf = entries
		lines[ls.class] += uint64(cost.Lines)
		ls.main.InsertBlock(vpbn, entries)
		if ls.l2 != nil {
			for _, e := range entries {
				ls.l2.Insert(e)
			}
		}
	} else {
		e, cost, ok := ls.table.Lookup(va)
		if !ok {
			return 0, fmt.Errorf("linear lost vpn %#x", uint64(vpn))
		}
		lines[ls.class] += uint64(cost.Lines)
		ls.main.Insert(e)
		if ls.l2 != nil {
			ls.l2.Insert(e)
		}
	}

	// The leaf PTE lives in virtual memory: translating its page can
	// nest-miss in the reserved entries.
	leafVA := addr.VAOf(addr.VPN(linear.LeafPageIndex(vpn)))
	if !ls.pt.Access(leafVA).Hit {
		w := uint64(ls.table.UpperWalkCost(vpn).Lines)
		if ls.pwc != nil && ls.pwc.Probe(vpn) {
			// A walk-cache hit skips the upper directories: only the
			// final directory line is read (ElideLines(upper, upper)).
			w = 1
		}
		lines[ls.class] += w
		ls.pt.Insert(pteForLeaf(vpn))
		return 1, nil
	}
	return 0, nil
}

// pteForLeaf fabricates a TLB entry for a page-table page: only the tag
// matters to the reserved-entry simulation.
func pteForLeaf(vpn addr.VPN) pte.Entry {
	leaf := addr.VPN(linear.LeafPageIndex(vpn))
	return pte.Entry{VPN: leaf, PPN: addr.PPN(leaf), Size: addr.Size4K, Kind: pte.KindBase}
}
