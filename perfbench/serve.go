package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/service"
	"clusterpt/internal/trace"
)

// serveProfile is the snapshot the serve workloads map: 8280 pages,
// twice the service's 4096 translation-cache slots, so both the
// lock-free hit path and the locked miss path carry weight.
const serveProfile = "ML"

// mapAttr is the protection every prepopulated page starts with.
const mapAttr = pte.AttrR | pte.AttrW

// ppnBase offsets prepopulated frames from their page numbers:
// vpn v maps to frame v+ppnBase, so consecutive pages map with MapRange.
const ppnBase = 1 << 20

// Sampling rates for single-call latency: one lookup in lookupEvery and
// one write in writeEvery is timed on its own.
const (
	lookupEvery = 32
	writeEvery  = 4
)

// page is the model's view of one page.
type page struct {
	mapped bool
	ppn    addr.PPN
	attr   pte.Attr
}

// model predicts every serve outcome. Pages are indexed densely by VPN
// offset; each client owns a disjoint set of pages, so a client reads
// and writes only its own entries and the model needs no locking.
type model struct {
	lo    addr.VPN
	index []int32 // vpn-lo -> page number, -1 outside the snapshot
	pages []page
}

func newModel(vpns []addr.VPN) (*model, error) {
	lo, hi := vpns[0], vpns[len(vpns)-1]
	if hi-lo >= 1<<24 {
		return nil, fmt.Errorf("snapshot spans %d pages, too sparse for a dense model", hi-lo)
	}
	m := &model{lo: lo, index: make([]int32, hi-lo+1), pages: make([]page, len(vpns))}
	for i := range m.index {
		m.index[i] = -1
	}
	for i, v := range vpns {
		m.index[v-lo] = int32(i)
		m.pages[i] = page{mapped: true, ppn: addr.PPN(v) + ppnBase, attr: mapAttr}
	}
	return m, nil
}

// at returns vpn's model entry, or nil outside the snapshot.
func (m *model) at(vpn addr.VPN) *page {
	if vpn < m.lo || int(vpn-m.lo) >= len(m.index) {
		return nil
	}
	if i := m.index[vpn-m.lo]; i >= 0 {
		return &m.pages[i]
	}
	return nil
}

// lookupOK reports whether a lookup result matches the model.
func (m *model) lookupOK(vpn addr.VPN, e pte.Entry, ok bool) bool {
	p := m.at(vpn)
	if p == nil || !p.mapped {
		return !ok
	}
	return ok && e.PPN == p.ppn && e.Attr == p.attr
}

// timedTable wraps a page table for the traced serve runs so the time
// spent inside the table separates from the service's own time.
// Lookups are timed 1-in-sampleEvery; writes, which take microseconds,
// are all timed.
type timedTable struct {
	pagetable.PageTable
	lookups, lookupSampled atomic.Uint64
	lookupNs, writeNs      atomic.Int64
}

func (t *timedTable) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	if t.lookups.Add(1)%sampleEvery != 1 {
		return t.PageTable.Lookup(va)
	}
	var e pte.Entry
	var c pagetable.WalkCost
	var ok bool
	t.lookupNs.Add(int64(timeCall(func() { e, c, ok = t.PageTable.Lookup(va) })))
	t.lookupSampled.Add(1)
	return e, c, ok
}

func (t *timedTable) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) (err error) {
	t.writeNs.Add(int64(timeCall(func() { err = t.PageTable.Map(vpn, ppn, attr) })))
	return err
}

func (t *timedTable) Unmap(vpn addr.VPN) (err error) {
	t.writeNs.Add(int64(timeCall(func() { err = t.PageTable.Unmap(vpn) })))
	return err
}

func (t *timedTable) ProtectRange(r addr.Range, set, clear pte.Attr) (c pagetable.WalkCost, err error) {
	t.writeNs.Add(int64(timeCall(func() { c, err = t.PageTable.ProtectRange(r, set, clear) })))
	return c, err
}

// reset zeroes the counters, so set-up writes are not reported.
func (t *timedTable) reset() {
	t.lookups.Store(0)
	t.lookupSampled.Store(0)
	t.lookupNs.Store(0)
	t.writeNs.Store(0)
}

// serveSetup is everything a serve workload builds before timing.
type serveSetup struct {
	model  *model
	svc    *service.Service    // serve-read
	rep    *service.Replicated // serve-mixed
	nodes  []*service.Node     // serve-mixed, one per client
	refs   [][]addr.V          // serve-read: each client's reference ring
	ops    [][]trace.Op        // serve-mixed: each client's op ring
	tables []*timedTable       // traced runs only
	fill   time.Duration       // time in trace generation
	fillN  uint64
	sdBase uint64 // shootdown lines charged during set-up
}

// newTable builds one clustered table, wrapped for timing when traced
// and then by cfg.wrapTable (tests inject faults through it).
func newTable(cfg *runConfig, traced bool, su *serveSetup) pagetable.PageTable {
	var t pagetable.PageTable = core.MustNew(core.Config{CostModel: memcost.NewModel(0)})
	if traced {
		tt := &timedTable{PageTable: t}
		su.tables = append(su.tables, tt)
		t = tt
	}
	if cfg.wrapTable != nil {
		t = cfg.wrapTable(t)
	}
	return t
}

// mapRuns prepopulates every page through mapRange, one call per run
// of consecutive pages.
func mapRuns(vpns []addr.VPN, mapRange func(vpn addr.VPN, ppn addr.PPN, n uint64, attr pte.Attr) (int, error)) error {
	for i := 0; i < len(vpns); {
		j := i + 1
		for j < len(vpns) && vpns[j] == vpns[j-1]+1 {
			j++
		}
		if _, err := mapRange(vpns[i], addr.PPN(vpns[i])+ppnBase, uint64(j-i), mapAttr); err != nil {
			return fmt.Errorf("prepopulate %#x: %w", uint64(vpns[i]), err)
		}
		i = j
	}
	return nil
}

// Each client owns a disjoint share of the snapshot's pages, assigned in
// runs of 1<<ownerRunLog pages (four 16-page blocks), and draws its
// inputs only from its own share. On serve-mixed that makes every
// outcome predictable; a protect range that would cross into another
// client's run is clamped. On serve-read it keeps the clients' streams
// from sharing translations: the generator sweeps sequential regions
// from their start, so clients over the same pages sweep in near
// lockstep and the hit ratio jumps between about 0.2 and 0.4 with
// their phase.
const ownerRunLog = 6

func owner(vpn addr.VPN, clients int) int { return int(uint64(vpn)>>ownerRunLog) % clients }

// ownSnapshot returns client c's share of snap.
func ownSnapshot(snap trace.ProcessSnapshot, c, clients int) trace.ProcessSnapshot {
	own := trace.ProcessSnapshot{Name: snap.Name, RefShare: snap.RefShare}
	for _, r := range snap.Regions {
		var keep []addr.VPN
		for _, v := range r.Pages {
			if owner(v, clients) == c {
				keep = append(keep, v)
			}
		}
		if len(keep) > 0 {
			own.Regions = append(own.Regions, trace.PlacedRegion{Spec: r.Spec, Base: r.Base, Pages: keep})
		}
	}
	return own
}

func setupServe(cfg *runConfig, traced bool) (*serveSetup, error) {
	p, ok := trace.ProfileByName(serveProfile)
	if !ok {
		return nil, fmt.Errorf("no profile %q", serveProfile)
	}
	snap := p.Snapshot()[0]
	vpns := snap.AllPages()
	su := &serveSetup{}
	var err error
	if su.model, err = newModel(vpns); err != nil {
		return nil, err
	}
	clients := cfg.workers

	if cfg.workload == "serve-read" {
		su.svc = service.MustWrap(newTable(cfg, traced, su), service.Config{})
		if err := mapRuns(vpns, su.svc.MapRange); err != nil {
			return nil, err
		}
		for c := 0; c < clients; c++ {
			gen := trace.NewGenerator(ownSnapshot(snap, c, clients), trace.DeriveSeed(uint64(cfg.seed), fmt.Sprintf("serve-read/%d", c)))
			t0 := time.Now()
			su.refs = append(su.refs, gen.Fill(nil, cfg.ring))
			su.fill += time.Since(t0)
			su.fillN += uint64(cfg.ring)
		}
	} else {
		su.rep, err = service.NewReplicated(service.ReplicatedConfig{Replicas: 2},
			func(int) (pagetable.PageTable, error) { return newTable(cfg, traced, su), nil })
		if err != nil {
			return nil, err
		}
		if clients > su.rep.Nodes() {
			clients = su.rep.Nodes()
		}
		if err := mapRuns(vpns, su.rep.MapRange); err != nil {
			return nil, err
		}
		su.sdBase = su.rep.Shootdowns().Lines
		for c := 0; c < clients; c++ {
			su.nodes = append(su.nodes, su.rep.Node(c))
			t0 := time.Now()
			ops := trace.NewOpStream(ownSnapshot(snap, c, clients), trace.DeriveSeed(uint64(cfg.seed), fmt.Sprintf("serve-mixed/%d", c)),
				trace.DefaultOpMix).Fill(nil, cfg.ring)
			su.fill += time.Since(t0)
			su.fillN += uint64(cfg.ring)
			for i := range ops {
				if ops[i].Kind == trace.OpProtect {
					end := (uint64(ops[i].VPN)>>ownerRunLog + 1) << ownerRunLog
					if uint64(ops[i].VPN)+uint64(ops[i].Pages) > end {
						ops[i].Pages = uint32(end - uint64(ops[i].VPN))
					}
				}
			}
			su.ops = append(su.ops, ops)
		}
	}
	for _, t := range su.tables {
		t.reset()
	}
	return su, nil
}

// clientTally is one client's running totals across rounds.
type clientTally struct {
	ops, failed, lookups uint64
	// lookupLat and writeLat are the single-call latency samples (ns);
	// lookupNs and writeNs sum the timed calls' time (writes by kind)
	// for the traced metrics.
	lookupLat, writeLat []float64
	lookupNs            time.Duration
	lookupTimed         uint64
	writeNs             [4]time.Duration
	writeTimed          [4]uint64
	// cursor is the client's position in its input ring.
	cursor   int
	failures int
	// Keeps the next client's tally off this one's cache lines: both
	// are written on every call.
	_ [128]byte
}

func (t *clientTally) fail(format string, args ...any) {
	t.failed++
	if t.failures < 5 {
		t.failures++
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// sampleLookup records one lookup timed on its own.
func (t *clientTally) sampleLookup(d time.Duration) {
	t.lookupLat = append(t.lookupLat, float64(d))
	t.lookupNs += d
	t.lookupTimed++
}

// readClient performs n lookups from the client's reference ring.
func readClient(su *serveSetup, c, n int, t *clientTally) {
	refs := su.refs[c]
	for i := 0; i < n; i++ {
		va := refs[t.cursor]
		t.cursor++
		if t.cursor == len(refs) {
			t.cursor = 0
		}
		var e pte.Entry
		var ok bool
		if i%lookupEvery == 0 {
			t.sampleLookup(timeCall(func() { e, ok = su.svc.Lookup(va) }))
		} else {
			e, ok = su.svc.Lookup(va)
		}
		t.ops++
		t.lookups++
		if vpn := addr.VPNOf(va); !su.model.lookupOK(vpn, e, ok) {
			t.fail("serve-read client %d: lookup %#x = %v %v, model %+v", c, uint64(vpn), e, ok, *su.model.at(vpn))
		}
	}
}

// mixedClient performs n ops from the client's op ring through its node.
func mixedClient(su *serveSetup, c, n int, traced bool, t *clientTally) {
	ops := su.ops[c]
	node := su.nodes[c]
	m := su.model
	writes := 0
	for i := 0; i < n; i++ {
		op := ops[t.cursor]
		t.cursor++
		if t.cursor == len(ops) {
			t.cursor = 0
		}
		t.ops++
		if op.Kind == trace.OpLookup {
			var e pte.Entry
			var ok bool
			if i%lookupEvery == 0 {
				t.sampleLookup(timeCall(func() { e, ok = node.Lookup(addr.VAOf(op.VPN)) }))
			} else {
				e, ok = node.Lookup(addr.VAOf(op.VPN))
			}
			t.lookups++
			if !m.lookupOK(op.VPN, e, ok) {
				t.fail("serve-mixed client %d: lookup %#x = %v %v, model %+v", c, uint64(op.VPN), e, ok, *m.at(op.VPN))
			}
			continue
		}
		// The traced run times every write; the untraced run one in
		// writeEvery, for the latency sample.
		writes++
		sampled := writes%writeEvery == 0
		var err error
		write := func() {
			switch op.Kind {
			case trace.OpMap:
				err = node.Map(op.VPN, op.PPN, op.Attr)
			case trace.OpUnmap:
				err = node.Unmap(op.VPN)
			case trace.OpProtect:
				err = node.Protect(op.Range(), op.Set, op.Clear)
			}
		}
		if traced || sampled {
			d := timeCall(write)
			if sampled {
				t.writeLat = append(t.writeLat, float64(d))
			}
			t.writeNs[op.Kind] += d
			t.writeTimed[op.Kind]++
		} else {
			write()
		}
		if !applyWrite(m, op, err) {
			t.fail("serve-mixed client %d: %v %#x+%d returned %v", c, op.Kind, uint64(op.VPN), op.Pages, err)
		}
	}
}

// applyWrite checks a write's outcome against the model and advances
// the model. Rejections the model predicts (mapping a mapped page,
// unmapping an unmapped one) are correct outcomes, not failures.
func applyWrite(m *model, op trace.Op, err error) bool {
	switch op.Kind {
	case trace.OpMap:
		p := m.at(op.VPN)
		if p.mapped {
			return errors.Is(err, pagetable.ErrAlreadyMapped)
		}
		*p = page{mapped: true, ppn: op.PPN, attr: op.Attr}
		return err == nil
	case trace.OpUnmap:
		p := m.at(op.VPN)
		if !p.mapped {
			return errors.Is(err, pagetable.ErrNotMapped)
		}
		p.mapped = false
		return err == nil
	case trace.OpProtect:
		for i := uint32(0); i < op.Pages; i++ {
			if p := m.at(op.VPN + addr.VPN(i)); p != nil && p.mapped {
				p.attr = (p.attr | op.Set) &^ op.Clear
			}
		}
		return err == nil
	}
	return false
}

// serveRound runs one closed-loop round: every client issues batch
// calls, each waiting for the previous one. It returns the round's wall
// time.
func serveRound(cfg *runConfig, su *serveSetup, tallies []clientTally, traced bool, parent int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := cfg.spans.open("client", fmt.Sprint(c), parent)
			defer cfg.spans.close(id)
			if su.svc != nil {
				readClient(su, c, cfg.batch, &tallies[c])
			} else {
				mixedClient(su, c, cfg.batch, traced, &tallies[c])
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// serveRounds runs rounds until the budget is spent (at least one) and
// returns each round's wall time.
func serveRounds(cfg *runConfig, su *serveSetup, tallies []clientTally, traced bool, budget time.Duration, name string) []float64 {
	var walls []float64
	phase := cfg.spans.open(name, "", 0)
	defer cfg.spans.close(phase)
	start := time.Now()
	for {
		id := cfg.spans.open("round", "", phase)
		w := serveRound(cfg, su, tallies, traced, id)
		cfg.spans.close(id)
		walls = append(walls, w.Seconds())
		if time.Since(start)+w/2 >= budget {
			return walls
		}
	}
}

func clientCount(su *serveSetup) int {
	if su.svc != nil {
		return len(su.refs)
	}
	return len(su.nodes)
}

// runServe measures a serve workload: closed-loop rounds for the run's
// length, every result checked against the clients' model. A traced run
// then repeats the rounds over timing-decorated tables (traceServe).
func runServe(cfg *runConfig, res *runResult) error {
	var su *serveSetup
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		// Each set-up starts from a collected heap, so it is not charged
		// for collecting the previous one's garbage.
		runtime.GC()
		id := cfg.spans.open("setup", "", 0)
		t0 := time.Now()
		s, err := setupServe(cfg, false)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.spans.close(id)
		su = s
	}
	res.e2e.set("setup_s", median(setups), "s")

	tallies := make([]clientTally, clientCount(su))
	runtime.GC()
	heap := startHeapPeak()
	mem0 := readMem()
	walls := serveRounds(cfg, su, tallies, false, cfg.seconds, "timed")
	mem := readMem().since(mem0)
	peak, gcs := heap.stop()

	var ops, failed uint64
	var lookupLat, writeLat []float64
	for _, t := range tallies {
		ops += t.ops
		failed += t.failed
		lookupLat = append(lookupLat, t.lookupLat...)
		writeLat = append(writeLat, t.writeLat...)
	}
	perRound := float64(cfg.batch * len(tallies))
	var rates []float64
	for _, w := range walls {
		rates = append(rates, perRound/w)
	}
	res.attempted += ops
	res.failed += failed
	res.e2e.set("wall_s", median(walls), "s")
	res.e2e.set("ops_per_s", median(rates), "1/s")
	res.e2e.set("alloc_bytes_per_op", float64(mem.bytes)/float64(ops), "B")
	res.e2e.set("allocs_per_op", float64(mem.objects)/float64(ops), "count")
	res.e2e.set("heap_peak_mb", peak, "MiB")
	res.extra.set("heap_samples", float64(gcs), "count")
	res.extra.set("rounds", float64(len(walls)), "count")
	res.extra.set("lookup_p50_ns", quantile(lookupLat, 0.5), "ns")
	res.extra.set("lookup_p99_ns", quantile(lookupLat, 0.99), "ns")
	res.extra.set("lookup_samples", float64(len(lookupLat)), "count")
	if cfg.workload == "serve-mixed" {
		res.extra.set("write_p50_ns", quantile(writeLat, 0.5), "ns")
		res.extra.set("write_p99_ns", quantile(writeLat, 0.99), "ns")
		res.extra.set("write_samples", float64(len(writeLat)), "count")
	}
	if !cfg.trace {
		return nil
	}
	return traceServe(cfg, median(walls), res)
}

// traceServe repeats the rounds over timing-decorated tables for half
// the run length and reports the service layer's per-layer metrics.
func traceServe(cfg *runConfig, untracedWall float64, res *runResult) error {
	su, err := setupServe(cfg, true)
	if err != nil {
		return err
	}
	m := res.layers
	m.set("trace.fill_ns_per_ref", float64(su.fill)/float64(su.fillN), "ns")
	tallies := make([]clientTally, clientCount(su))
	walls := serveRounds(cfg, su, tallies, true, cfg.seconds/2, "traced")
	m.set("bench.trace_overhead", median(walls)/untracedWall, "ratio")

	var lookups, failed, ops, lookupTimed uint64
	var lookupNs time.Duration
	var writeNs [4]time.Duration
	var writeTimed [4]uint64
	for _, t := range tallies {
		ops += t.ops
		failed += t.failed
		lookups += t.lookups
		lookupNs += t.lookupNs
		lookupTimed += t.lookupTimed
		for k := range writeNs {
			writeNs[k] += t.writeNs[k]
			writeTimed[k] += t.writeTimed[k]
		}
	}
	res.attempted += ops
	res.failed += failed

	var tableCalls, tableSampled uint64
	var tableNs, tableWriteNs int64
	for _, t := range su.tables {
		tableCalls += t.lookups.Load()
		tableSampled += t.lookupSampled.Load()
		tableNs += t.lookupNs.Load()
		tableWriteNs += t.writeNs.Load()
	}
	var hits uint64
	if su.svc != nil {
		hits = su.svc.Stats().Hits
	} else {
		// Replicated.Stats does not count lookups made through Node
		// handles; each node's own accounting does.
		for _, n := range su.nodes {
			hits += n.Cost().Hits
		}
	}
	lookupMean := float64(lookupNs) / float64(max(lookupTimed, 1))
	tableMean := float64(tableNs) / float64(max(tableSampled, 1))
	m.set("service.hit_ratio", ratio(hits, lookups), "ratio")
	m.set("service.lookup_ns", lookupMean, "ns")
	m.set("service.table_lookup_ns", tableMean, "ns")
	m.set("service.self_ns_per_lookup", lookupMean-tableMean*ratio(tableCalls, lookups), "ns")

	var writes uint64
	var writeTotal time.Duration
	for _, k := range []trace.OpKind{trace.OpMap, trace.OpUnmap, trace.OpProtect} {
		writes += writeTimed[k]
		writeTotal += writeNs[k]
	}
	per := func(k trace.OpKind) float64 { return float64(writeNs[k]) / float64(max(writeTimed[k], 1)) }
	m.set("service.map_ns", per(trace.OpMap), "ns")
	m.set("service.unmap_ns", per(trace.OpUnmap), "ns")
	m.set("service.protect_ns", per(trace.OpProtect), "ns")
	m.set("service.table_write_ns", float64(tableWriteNs)/float64(max(writes, 1)), "ns")
	m.set("service.broadcast_self_ns_per_write", float64(int64(writeTotal)-tableWriteNs)/float64(max(writes, 1)), "ns")
	var sd uint64
	if su.rep != nil {
		sd = su.rep.Shootdowns().Lines - su.sdBase
	}
	m.set("service.shootdown_lines_per_write", ratio(sd, writes), "lines")
	return nil
}
