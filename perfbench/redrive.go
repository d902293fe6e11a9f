package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"clusterpt/internal/addr"
	"clusterpt/internal/forward"
	"clusterpt/internal/linear"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/sim"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// The traced replay run re-drives every Figure 11 cell from this file,
// calling each layer's public functions in the order sim's serial
// replay does (sim/access.go: runProcess, serviceMiss, serviceLinear)
// with a timer around each call site. The cross-check afterwards proves
// the re-drive did the same work: its per-variant line totals and
// reference-TLB misses must equal sim.RunFigure11 exactly.

// numClasses is the number of Figure 11 line-accounting classes
// (sim.LCLinear .. sim.LCClustered).
const numClasses = 4

// orgNames names each class's organization package in metric names.
var orgNames = [numClasses]string{
	sim.LCLinear:    "linear",
	sim.LCForward:   "forward",
	sim.LCHashed:    "hashed",
	sim.LCClustered: "core",
}

const (
	// l2ProbeLines mirrors sim's charge for one L2 TLB probe.
	l2ProbeLines = 1
	// blockLog is log2 of the pages one complete-subblock TLB entry
	// (and one Figure 11d prefetch) covers.
	blockLog = 4
	// tlbEntries is the reference TLB size (§6.1).
	tlbEntries = 64
	// replayChunk is the references generated per Generator.Fill, as
	// in sim's buffered replay.
	replayChunk = 4096
)

// redriveCell is one engine cell to re-drive.
type redriveCell struct {
	key     string
	fig     sim.Figure
	profile trace.Profile
	seed    uint64
	mmu     sim.MMUConfig
}

// cellsFor lists a replay workload's cells, one group per experiment,
// with the seeds the engine derives for them (engine.Fan:
// trace.DeriveSeed(base, key); the hierarchy experiment shares one
// mode-independent seed per workload).
func cellsFor(workload string, base uint64) ([][]redriveCell, error) {
	var profiles []trace.Profile
	for _, p := range trace.Profiles() {
		if !p.SnapshotOnly {
			profiles = append(profiles, p)
		}
	}
	var out [][]redriveCell
	switch workload {
	case "replay":
		for _, f := range []sim.Figure{sim.Fig11a, sim.Fig11b, sim.Fig11c, sim.Fig11d} {
			var group []redriveCell
			for _, p := range profiles {
				key := f.String() + "/" + p.Name
				group = append(group, redriveCell{key: key, fig: f, profile: p, seed: trace.DeriveSeed(base, key)})
			}
			out = append(out, group)
		}
	case "replay-mmu":
		var group []redriveCell
		for _, mode := range []string{"flat", "l2", "l2+pwc"} {
			mcfg, err := sim.ParseMMU(mode)
			if err != nil {
				return nil, err
			}
			for _, p := range profiles {
				group = append(group, redriveCell{
					key: "hierarchy/" + mode + "/" + p.Name, fig: sim.Fig11a, profile: p,
					seed: trace.DeriveSeed(base, "hierarchy/"+p.Name), mmu: mcfg,
				})
			}
		}
		out = append(out, group)
	default:
		return nil, fmt.Errorf("no cells for workload %q", workload)
	}
	return out, nil
}

// layerStats is one worker's per-layer counters; merged after the pass.
type layerStats struct {
	build, fill time.Duration
	fillRefs    uint64

	tlbAccess, tlbInsert, tlbInsertBlock callTimer
	lookup, lookupBlock                  [numClasses]callTimer
	swAccess, swInsert, pwcProbe         callTimer
	swHits, pwcHits                      uint64

	cellTime time.Duration
	refs     uint64
	// lines and refMisses feed <org>.lines_per_miss and tlb.miss_ratio.
	lines     [numClasses]uint64
	refMisses uint64
}

func (s *layerStats) merge(o *layerStats) {
	s.build += o.build
	s.fill += o.fill
	s.fillRefs += o.fillRefs
	s.tlbAccess.add(o.tlbAccess)
	s.tlbInsert.add(o.tlbInsert)
	s.tlbInsertBlock.add(o.tlbInsertBlock)
	for i := range s.lookup {
		s.lookup[i].add(o.lookup[i])
		s.lookupBlock[i].add(o.lookupBlock[i])
		s.lines[i] += o.lines[i]
	}
	s.swAccess.add(o.swAccess)
	s.swInsert.add(o.swInsert)
	s.pwcProbe.add(o.pwcProbe)
	s.swHits += o.swHits
	s.pwcHits += o.pwcHits
	s.cellTime += o.cellTime
	s.refs += o.refs
	s.refMisses += o.refMisses
}

// timedCallNs estimates the time spent in every timed layer call.
func (s *layerStats) timedCallNs() float64 {
	t := s.tlbAccess.totalNs() + s.tlbInsert.totalNs() + s.tlbInsertBlock.totalNs() +
		s.swAccess.totalNs() + s.swInsert.totalNs() + s.pwcProbe.totalNs()
	for i := range s.lookup {
		t += s.lookup[i].totalNs() + s.lookupBlock[i].totalNs()
	}
	return t + float64(s.build) + float64(s.fill)
}

// cellOutcome is what the cross-check compares with sim.RunFigure11.
type cellOutcome struct {
	lines            [numClasses]uint64
	misses, accesses uint64
}

// procState mirrors sim's per-process figure state.
type procState struct {
	variants  []sim.TableVariant
	tables    []pagetable.PageTable
	canonical pagetable.PageTable
	refTLB    *tlb.TLB
	l2        *swtlb.Cache
	// pwc is the page-walk cache of the one tree-walked variant, at
	// index pwcIdx; nil without one.
	pwc      *walkcache.PWC
	pwcIdx   int
	pwcUpper int
	lins     []*linProc
}

type linProc struct {
	main, pt *tlb.TLB
	table    *linear.Table
	class    sim.LineClass
	l2       *swtlb.Cache
	pwc      *walkcache.PWC
}

func newL2(m sim.MMUConfig, model memcost.Model) *swtlb.Cache {
	if m.L2Entries == 0 {
		return nil
	}
	ways := m.L2Ways
	if ways == 0 {
		ways = 4
	}
	return swtlb.MustNewLevel(swtlb.Config{Entries: m.L2Entries, Ways: ways, CostModel: model})
}

func newPWC(m sim.MMUConfig, uw pagetable.UpperWalker) *walkcache.PWC {
	span := uint(8)
	switch t := uw.(type) {
	case *forward.Table:
		span = t.LeafSpan()
	case *linear.Table:
		span = linear.LeafSpanBits
	}
	return walkcache.MustNew(walkcache.Config{Entries: m.PWCEntries, LogSpan: span}, uw)
}

func (s *layerStats) newProcState(c redriveCell, snap trace.ProcessSnapshot, model memcost.Model) (*procState, error) {
	st := &procState{variants: c.fig.Variants(), pwcIdx: -1}
	st.tables = make([]pagetable.PageTable, len(st.variants))
	for i, v := range st.variants {
		t0 := time.Now()
		b, err := sim.BuildProcess(v, c.fig.Mode(), snap, model)
		s.build += time.Since(t0)
		if err != nil {
			return nil, err
		}
		st.tables[i] = b.Table
		if v.Class == sim.LCClustered {
			st.canonical = b.Table
		}
	}
	kind := c.fig.TLBKind()
	st.refTLB = tlb.MustNew(tlb.Config{Kind: kind, Entries: tlbEntries})
	st.l2 = newL2(c.mmu, model)
	if c.mmu.PWC {
		for i, v := range st.variants {
			uw, ok := st.tables[i].(pagetable.UpperWalker)
			if v.ReservedTLB > 0 || !ok {
				continue
			}
			st.pwc = newPWC(c.mmu, uw)
			st.pwcIdx = i
			st.pwcUpper = uw.UpperWalkCost(0).Lines
		}
	}
	for i, v := range st.variants {
		if v.ReservedTLB == 0 {
			continue
		}
		lt, ok := st.tables[i].(*linear.Table)
		if !ok {
			return nil, fmt.Errorf("reserved-TLB variant %q is not linear", v.Name)
		}
		lp := &linProc{
			main:  tlb.MustNew(tlb.Config{Kind: kind, Entries: tlbEntries - v.ReservedTLB}),
			pt:    tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: v.ReservedTLB}),
			table: lt,
			class: v.Class,
			l2:    newL2(c.mmu, model),
		}
		if c.mmu.PWC {
			lp.pwc = newPWC(c.mmu, lt)
		}
		st.lins = append(st.lins, lp)
	}
	return st, nil
}

// runCell re-drives one cell: every process of the profile, with the
// reference budget split by RefShare exactly as sim.RunFigure11 does.
func (s *layerStats) runCell(c redriveCell, refs int, chunk []addr.V) (cellOutcome, error) {
	var out cellOutcome
	model := memcost.NewModel(0)
	seed := c.seed
	if seed == 0 {
		seed = 1
	}
	start := time.Now()
	for pi, snap := range c.profile.Snapshot() {
		n := int(float64(refs) * c.profile.Procs[pi].RefShare)
		if n == 0 {
			continue
		}
		st, err := s.newProcState(c, snap, model)
		if err != nil {
			return out, err
		}
		gen := trace.NewGenerator(snap, seed*31+1)
		for left := n; left > 0; {
			k := cap(chunk)
			if k > left {
				k = left
			}
			t0 := time.Now()
			chunk = gen.Fill(chunk, k)
			s.fill += time.Since(t0)
			s.fillRefs += uint64(k)
			for _, va := range chunk {
				if err := s.step(c.fig, va, st, &out); err != nil {
					return out, err
				}
			}
			left -= k
		}
		out.accesses += uint64(n)
	}
	s.cellTime += time.Since(start)
	s.refs += out.accesses
	s.refMisses += out.misses
	for i := range out.lines {
		s.lines[i] += out.lines[i]
	}
	return out, nil
}

func (s *layerStats) step(f sim.Figure, va addr.V, st *procState, out *cellOutcome) error {
	var res tlb.Result
	s.tlbAccess.do(func() { res = st.refTLB.Access(va) })
	if !res.Hit {
		out.misses++
		if err := s.serviceMiss(f, va, res, st, out); err != nil {
			return err
		}
	}
	for _, lp := range st.lins {
		if err := s.serviceLinear(f, va, lp, out); err != nil {
			return err
		}
	}
	return nil
}

func (s *layerStats) l2Access(l2 *swtlb.Cache, va addr.V) bool {
	var hit bool
	s.swAccess.do(func() { hit = l2.Access(va).Hit })
	if hit {
		s.swHits++
	}
	return hit
}

func (s *layerStats) l2Insert(l2 *swtlb.Cache, e pte.Entry) {
	s.swInsert.do(func() { l2.Insert(e) })
}

func (s *layerStats) pwcProbeVPN(p *walkcache.PWC, vpn addr.VPN) bool {
	var hit bool
	s.pwcProbe.do(func() { hit = p.Probe(vpn) })
	if hit {
		s.pwcHits++
	}
	return hit
}

func (s *layerStats) serviceMiss(f sim.Figure, va addr.V, res tlb.Result, st *procState, out *cellOutcome) error {
	vpn := addr.VPNOf(va)
	if st.l2 != nil {
		for _, v := range st.variants {
			if v.ReservedTLB == 0 {
				out.lines[v.Class] += l2ProbeLines
			}
		}
		if s.l2Access(st.l2, va) {
			s.tlbInsert.do(func() { st.refTLB.Insert(mmu.BaseEntry(vpn)) })
			return nil
		}
	}
	pwcHit := false
	if st.pwc != nil {
		pwcHit = s.pwcProbeVPN(st.pwc, vpn)
	}

	if f == sim.Fig11d && !res.SubblockMiss {
		vpbn, _ := addr.BlockSplit(vpn, blockLog)
		for i, v := range st.variants {
			if v.ReservedTLB > 0 {
				continue
			}
			br, ok := st.tables[i].(pagetable.BlockReader)
			if !ok {
				return fmt.Errorf("variant %q cannot prefetch blocks", v.Name)
			}
			var cost pagetable.WalkCost
			var found bool
			s.lookupBlock[v.Class].do(func() { _, cost, found = br.LookupBlock(vpbn, blockLog) })
			if !found {
				return fmt.Errorf("variant %q lost block %#x", v.Name, uint64(vpbn))
			}
			l := cost.Lines
			if pwcHit && i == st.pwcIdx {
				l = walkcache.ElideLines(l, st.pwcUpper)
			}
			out.lines[v.Class] += uint64(l)
		}
		var entries []pte.Entry
		var found bool
		s.lookupBlock[sim.LCClustered].do(func() {
			entries, _, found = st.canonical.(pagetable.BlockReader).LookupBlock(vpbn, blockLog)
		})
		if !found {
			return fmt.Errorf("canonical table lost block %#x", uint64(vpbn))
		}
		s.tlbInsertBlock.do(func() { st.refTLB.InsertBlock(vpbn, entries) })
		if st.l2 != nil {
			for _, e := range entries {
				s.l2Insert(st.l2, e)
			}
		}
		return nil
	}

	for i, v := range st.variants {
		if v.ReservedTLB > 0 {
			continue
		}
		var cost pagetable.WalkCost
		var ok bool
		t := st.tables[i]
		s.lookup[v.Class].do(func() { _, cost, ok = t.Lookup(va) })
		if !ok {
			return fmt.Errorf("variant %q lost vpn %#x", v.Name, uint64(vpn))
		}
		l := cost.Lines
		if pwcHit && i == st.pwcIdx {
			l = walkcache.ElideLines(l, st.pwcUpper)
		}
		out.lines[v.Class] += uint64(l)
	}
	var e pte.Entry
	var ok bool
	s.lookup[sim.LCClustered].do(func() { e, _, ok = st.canonical.Lookup(va) })
	if !ok {
		return fmt.Errorf("canonical table lost vpn %#x", uint64(vpn))
	}
	s.tlbInsert.do(func() { st.refTLB.Insert(e) })
	if st.l2 != nil {
		s.l2Insert(st.l2, e)
	}
	return nil
}

func (s *layerStats) serviceLinear(f sim.Figure, va addr.V, lp *linProc, out *cellOutcome) error {
	var res tlb.Result
	s.tlbAccess.do(func() { res = lp.main.Access(va) })
	if res.Hit {
		return nil
	}
	vpn := addr.VPNOf(va)
	if lp.l2 != nil {
		out.lines[lp.class] += l2ProbeLines
		if s.l2Access(lp.l2, va) {
			s.tlbInsert.do(func() { lp.main.Insert(mmu.BaseEntry(vpn)) })
			return nil
		}
	}

	if f == sim.Fig11d && !res.SubblockMiss {
		vpbn, _ := addr.BlockSplit(vpn, blockLog)
		var entries []pte.Entry
		var cost pagetable.WalkCost
		var ok bool
		s.lookupBlock[lp.class].do(func() { entries, cost, ok = lp.table.LookupBlock(vpbn, blockLog) })
		if !ok {
			return fmt.Errorf("linear lost block %#x", uint64(vpbn))
		}
		out.lines[lp.class] += uint64(cost.Lines)
		s.tlbInsertBlock.do(func() { lp.main.InsertBlock(vpbn, entries) })
		if lp.l2 != nil {
			for _, e := range entries {
				s.l2Insert(lp.l2, e)
			}
		}
	} else {
		var e pte.Entry
		var cost pagetable.WalkCost
		var ok bool
		s.lookup[lp.class].do(func() { e, cost, ok = lp.table.Lookup(va) })
		if !ok {
			return fmt.Errorf("linear lost vpn %#x", uint64(vpn))
		}
		out.lines[lp.class] += uint64(cost.Lines)
		s.tlbInsert.do(func() { lp.main.Insert(e) })
		if lp.l2 != nil {
			s.l2Insert(lp.l2, e)
		}
	}

	// The leaf PTE lives in virtual memory: translating its page can
	// nest-miss in the reserved entries.
	leaf := addr.VPN(linear.LeafPageIndex(vpn))
	var hit bool
	s.tlbAccess.do(func() { hit = lp.pt.Access(addr.VAOf(leaf)).Hit })
	if !hit {
		w := uint64(lp.table.UpperWalkCost(vpn).Lines)
		if lp.pwc != nil && s.pwcProbeVPN(lp.pwc, vpn) {
			w = 1
		}
		out.lines[lp.class] += w
		e := pte.Entry{VPN: leaf, PPN: addr.PPN(leaf), Size: addr.Size4K, Kind: pte.KindBase}
		s.tlbInsert.do(func() { lp.pt.Insert(e) })
	}
	return nil
}

// redriveWorkload re-drives every cell of the workload over cfg.workers
// goroutines, reports the per-layer metrics, and cross-checks each
// cell against sim.RunFigure11.
func redriveWorkload(ctx context.Context, cfg *runConfig, base uint64, engineWall float64, res *runResult) error {
	groups, err := cellsFor(cfg.workload, base)
	if err != nil {
		return err
	}
	// Experiments run one after another, as Engine.Run runs them, so the
	// traced wall time compares with the engine's.
	var cells []redriveCell
	for _, g := range groups {
		cells = append(cells, g...)
	}
	outcomes := make([]cellOutcome, len(cells))
	stats := make([]layerStats, cfg.workers)
	traced := cfg.spans.open("traced", "", 0)
	start := time.Now()
	first := 0
	for _, g := range groups {
		err := forCells(ctx, len(g), cfg.workers, func(w, i int) error {
			c := g[i]
			id := cfg.spans.open("redrive.cell", c.key, traced)
			defer cfg.spans.close(id)
			o, err := stats[w].runCell(c, cfg.refs, make([]addr.V, 0, replayChunk))
			outcomes[first+i] = o
			if err != nil {
				return fmt.Errorf("re-drive %s: %w", c.key, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		first += len(g)
	}
	wall := time.Since(start)
	cfg.spans.close(traced)
	var all layerStats
	for i := range stats {
		all.merge(&stats[i])
	}
	res.layers.set("bench.trace_overhead", wall.Seconds()/engineWall, "ratio")
	reportLayers(&all, res.layers)
	if err := allocProbes(&all, res.layers); err != nil {
		return err
	}

	// Cross-check: the same cells through sim.RunFigure11.
	check := cfg.spans.open("crosscheck", "", 0)
	defer cfg.spans.close(check)
	var mu sync.Mutex
	return forCells(ctx, len(cells), cfg.workers, func(_, i int) error {
		c := cells[i]
		row, err := sim.RunFigure11(c.fig, c.profile, sim.AccessConfig{Refs: cfg.refs, Seed: c.seed, MMU: c.mmu})
		if err != nil {
			return fmt.Errorf("cross-check %s: %w", c.key, err)
		}
		o := outcomes[i]
		ok := row.RefMisses == o.misses && row.RefAccesses == o.accesses
		for _, v := range c.fig.Variants() {
			if row.AvgLines[v.Name] != float64(o.lines[v.Class])/float64(o.misses) {
				ok = false
			}
		}
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		if !ok {
			res.failed++
			res.crossCheckFailed = true
			fmt.Fprintf(os.Stderr, "perfbench: cross-check %s: re-driven misses %d lines %v, RunFigure11 misses %d avg %v\n",
				c.key, o.misses, o.lines, row.RefMisses, row.AvgLines)
		}
		return nil
	})
}

// forCells runs fn(worker, index) for indexes 0..n-1 over workers
// goroutines and returns the first error.
func forCells(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	idx := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				if err := fn(w, i); err != nil {
					errs <- err
					for range idx {
					}
					return
				}
			}
		}(w)
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case err = <-errs:
			break feed
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	return err
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// reportLayers converts merged counters into the per-layer metrics.
func reportLayers(s *layerStats, m metricSet) {
	m.set("sim.build_ms", float64(s.build)/1e6, "ms")
	self := float64(s.cellTime) - s.timedCallNs()
	m.set("sim.self_ns_per_ref", self/float64(s.refs), "ns")
	m.set("trace.fill_ns_per_ref", float64(s.fill)/float64(s.fillRefs), "ns")
	m.set("tlb.access_ns", s.tlbAccess.meanNs(), "ns")
	m.set("tlb.miss_ratio", ratio(s.refMisses, s.refs), "ratio")
	m.set("tlb.insert_ns", s.tlbInsert.meanNs(), "ns")
	m.set("tlb.insert_block_ns", s.tlbInsertBlock.meanNs(), "ns")
	for c, org := range orgNames {
		m.set(org+".lookup_ns", s.lookup[c].meanNs(), "ns")
		m.set(org+".lookup_block_ns", s.lookupBlock[c].meanNs(), "ns")
		m.set(org+".lines_per_miss", ratio(s.lines[c], s.refMisses), "lines")
	}
	m.set("swtlb.access_ns", s.swAccess.meanNs(), "ns")
	m.set("swtlb.hit_ratio", ratio(s.swHits, s.swAccess.calls), "ratio")
	m.set("swtlb.insert_ns", s.swInsert.meanNs(), "ns")
	m.set("walkcache.probe_ns", s.pwcProbe.meanNs(), "ns")
	m.set("walkcache.hit_ratio", ratio(s.pwcHits, s.pwcProbe.calls), "ratio")
}

// allocsPerCall measures heap objects allocated per call of f over n
// calls. Only meaningful while no other goroutine allocates.
func allocsPerCall(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// probeProfile is the workload whose tables the allocation probes use.
const probeProfile = "mp3d"

// allocProbes measures allocations per call of the block-gather and
// software-TLB insert paths after the re-drive, when nothing else runs
// (the runtime's allocation counters are process-wide). A path the
// workload never called reports 0.
func allocProbes(s *layerStats, m metricSet) error {
	for _, org := range orgNames {
		m.set(org+".lookup_block_allocs", 0, "count")
	}
	m.set("tlb.insert_block_allocs", 0, "count")
	m.set("swtlb.insert_allocs", 0, "count")
	blocks := s.tlbInsertBlock.calls > 0
	if !blocks && s.swInsert.calls == 0 {
		return nil
	}
	p, ok := trace.ProfileByName(probeProfile)
	if !ok {
		return fmt.Errorf("no profile %q", probeProfile)
	}
	snap := p.Snapshot()[0]
	model := memcost.NewModel(0)
	var vpbns []addr.VPBN
	for _, vpn := range snap.AllPages() {
		vpbn, _ := addr.BlockSplit(vpn, blockLog)
		if len(vpbns) == 0 || vpbns[len(vpbns)-1] != vpbn {
			vpbns = append(vpbns, vpbn)
		}
	}
	if len(vpbns) > 512 {
		vpbns = vpbns[:512]
	}
	var entries [][]pte.Entry
	for _, v := range sim.Fig11d.Variants() {
		b, err := sim.BuildProcess(v, sim.Fig11d.Mode(), snap, model)
		if err != nil {
			return err
		}
		br, ok := b.Table.(pagetable.BlockReader)
		if !ok {
			return fmt.Errorf("variant %q cannot gather blocks", v.Name)
		}
		if blocks {
			m.set(orgNames[v.Class]+".lookup_block_allocs",
				allocsPerCall(len(vpbns), func(i int) { br.LookupBlock(vpbns[i], blockLog) }), "count")
		}
		if v.Class == sim.LCClustered {
			for _, vpbn := range vpbns {
				es, _, _ := br.LookupBlock(vpbn, blockLog)
				entries = append(entries, es)
			}
		}
	}
	if blocks {
		t := tlb.MustNew(tlb.Config{Kind: tlb.CompleteSubblock, Entries: tlbEntries})
		m.set("tlb.insert_block_allocs",
			allocsPerCall(len(vpbns), func(i int) { t.InsertBlock(vpbns[i], entries[i]) }), "count")
	}
	if s.swInsert.calls > 0 {
		mcfg, err := sim.ParseMMU("l2")
		if err != nil {
			return err
		}
		l2 := newL2(mcfg, model)
		var flat []pte.Entry
		for _, es := range entries {
			flat = append(flat, es...)
		}
		m.set("swtlb.insert_allocs", allocsPerCall(len(flat), func(i int) { l2.Insert(flat[i]) }), "count")
	}
	return nil
}
