package sim

// The Figure 11 replay: one process's reference stream decomposed into
// three stages that produce byte-identical results at every lane count.
//
// Per reference, the replay interleaves three independent machines: (1)
// the reference TLB plus its canonical refill, (2) the read-only
// variant walks charged per miss, and (3) each linear variant's private
// TLB pair. Only (1) and (3) carry state from one reference to the
// next, and they share nothing with each other; (2) is a pure function
// of the missing page over immutable page tables. The stages follow
// exactly that decomposition:
//
//   - The driver generates the reference stream in chunks, runs the
//     reference TLB over every reference in stream order, walks the
//     canonical (clustered) table live on each miss — one walk supplies
//     both the refill and the clustered class's lines — and records
//     each miss.
//   - The linear stage consumes the chunks in stream order and runs
//     every linear variant's TLB-pair state machine with live lookups.
//   - The walk stage consumes the per-chunk miss records and charges
//     the other variants' walk costs, memoized per page (and per block
//     under Figure 11d) in a dense costMemo. Any assignment of misses
//     to walk lanes yields the same totals because each miss
//     contributes a pure per-page cost exactly once and uint64 sums
//     over disjoint subsets commute.
//
// At one lane the three stages run inline, chunk by chunk, on the
// calling goroutine; at more lanes they fan out over channels. The
// merge is index-ordered and exact — no atomics on the hot path, no
// order-dependent reduction. The page tables' internal operation
// Counters are the only observable difference from a per-reference
// loop: memoized walks count once per page instead of once per miss,
// and no rendered figure reads them. DESIGN.md §10 states the full
// contract; refmodel_test.go pins every lane count to the unmemoized
// reference loop field by field.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// runProcess replays one process's trace through the figure's TLBs and
// page tables over cfg.Shards lanes (inline at one).
func runProcess(f Figure, snap trace.ProcessSnapshot, refs int, cfg AccessConfig) (lineCounts, uint64, uint64, error) {
	st, err := newFigureState(f, f.Variants(), snap, cfg)
	if err != nil {
		return lineCounts{}, 0, 0, err
	}
	gen := trace.NewGenerator(snap, cfg.Seed*31+1)
	d := newDriver(f, st)
	ll := &linLane{f: f, lins: st.lins}
	// Up to two lanes the driver runs the walk stage itself; beyond
	// that every further lane is a walk lane.
	walkers := make([]*walkLane, max(cfg.Shards-2, 1))
	for i := range walkers {
		walkers[i] = newWalkLane(st)
		walkers[i].memo = cfg.Buf.takeMemo(snap, len(walkers[i].walked), f == Fig11d)
	}
	if cfg.Shards <= 1 {
		err = replayInline(gen, cfg.Buf, refs, d, walkers[0], ll)
	} else {
		err = replayFanned(gen, cfg.Buf, refs, d, walkers, ll, cfg.Shards)
	}
	for _, w := range walkers {
		cfg.Buf.putMemo(w.memo)
	}
	if err != nil {
		return lineCounts{}, 0, 0, err
	}

	// Index-ordered exact merge: plain uint64 adds over disjoint
	// accumulators, in a fixed stage order.
	var lines lineCounts
	lines.add(&d.lines)
	lines.add(&ll.lines)
	for _, w := range walkers {
		lines.add(&w.lines)
	}
	return lines, d.misses, ll.nested, nil
}

// Miss records ride in the same []addr.V buffers as references so both
// come from the ReplayBuf free list. The generator 8-aligns every
// address, so bits 0-2 are free to carry the bits the walk stage needs:
// whether a Fig11d miss was a full-block miss (prefetch walk) rather
// than a subblock miss (single-page walk), whether the L2 TLB serviced
// the miss (no walk at all, only the probe line), and whether the
// page-walk cache hit (the tree-walked variant's upper levels elide).
// The stateful L2 and PWC evolve only on the driver, in stream order;
// the walk stage turns these bits into pure per-record arithmetic, so
// lane assignment still cannot affect the totals.
const (
	missBlockBit  = 1
	missL2HitBit  = 2
	missPWCHitBit = 4
	missRecMask   = missBlockBit | missL2HitBit | missPWCHitBit
)

// driver owns the reference TLB, the shared L2 and page-walk cache,
// and the canonical (clustered) table, whose live walk on each miss
// refills the TLB and is charged to the clustered class.
type driver struct {
	f     Figure
	st    *figureState
	name  string
	class LineClass
	table pagetable.PageTable
	// elide is set when the canonical variant is the walk-cached one.
	elide bool
	// buf is the reused block-prefetch gather buffer; the TLB copies
	// the entries out before the next gather.
	buf    []pte.Entry
	lines  lineCounts
	misses uint64
}

func newDriver(f Figure, st *figureState) *driver {
	v := st.variants[st.canonIdx]
	return &driver{
		f: f, st: st, name: v.Name, class: v.Class,
		table: st.builds[st.canonIdx].Table,
		elide: st.pwcIdx == st.canonIdx,
	}
}

// run probes the reference TLB with one chunk in stream order. When
// the driver runs the walk stage itself, w accounts each miss record
// at once; otherwise (w nil) the records are appended to miss for the
// walk lanes.
func (d *driver) run(vas, miss []addr.V, w *walkLane) ([]addr.V, error) {
	for _, va := range vas {
		res := d.st.refTLB.Access(va)
		if res.Hit {
			continue
		}
		rec, err := d.miss(va, res)
		if err == nil && w != nil {
			err = w.account(rec)
		} else if err == nil {
			miss = append(miss, rec)
		}
		if err != nil {
			return miss, err
		}
	}
	return miss, nil
}

// miss services one reference-TLB miss: under a multi-level MMU it
// probes the L2 first (an L2 hit refills the L1 with the base page and
// skips every walk); on a full miss it probes the page-walk cache,
// walks the canonical table and refills the TLB (and the L2) from that
// walk. It returns the miss record for the walk stage.
func (d *driver) miss(va addr.V, res tlb.Result) (addr.V, error) {
	d.misses++
	st := d.st
	vpn := addr.VPNOf(va)
	if st.l2 != nil && st.l2.Access(va).Hit {
		st.refTLB.Insert(baseRefill(vpn))
		return va | missL2HitBit, nil
	}
	rec := va
	pwcHit := st.pwcIdx >= 0 && st.pwcs[st.pwcIdx].Probe(vpn)
	if pwcHit {
		rec |= missPWCHitBit
	}

	var lines int
	if d.f == Fig11d && !res.SubblockMiss {
		// Block miss with prefetch: gather the whole block (§4.4).
		vpbn, _ := addr.BlockSplit(vpn, 4)
		br, ok := d.table.(pagetable.BlockReader)
		if !ok {
			return 0, fmt.Errorf("variant %q cannot prefetch blocks", d.name)
		}
		entries, cost, found := br.AppendBlock(d.buf[:0], vpbn, 4)
		if !found {
			return 0, fmt.Errorf("variant %q lost block %#x", d.name, uint64(vpbn))
		}
		d.buf = entries
		st.refTLB.InsertBlock(vpbn, entries)
		if st.l2 != nil {
			for _, e := range entries {
				st.l2.Insert(e)
			}
		}
		lines = cost.Lines
		rec |= missBlockBit
	} else {
		e, cost, ok := d.table.Lookup(va)
		if !ok {
			return 0, fmt.Errorf("variant %q lost vpn %#x", d.name, uint64(vpn))
		}
		st.refTLB.Insert(e)
		if st.l2 != nil {
			st.l2.Insert(e)
		}
		lines = cost.Lines
	}
	if pwcHit && d.elide {
		lines = walkcache.ElideLines(lines, st.pwcUpper)
	}
	d.lines[d.class] += uint64(lines)
	return rec, nil
}

// costMemo is a dense walk-cost memo over one process's snapshot
// regions: a cell of stride 16-bit line counts, one per walked variant,
// for every page of each region's mapped span and, under Figure 11d,
// for every page block that span touches. A page is found by a short
// scan over the regions, so no map is involved. An all-zero cell means
// "not walked yet": every walk touches at least one line, and a cell
// that stays zero is only walked again. So is a walk whose count does
// not fit 16 bits: it is never stored.
type costMemo struct {
	stride  int
	regions []memoRegion
	slab    []uint16
}

// memoRegion is one region's part of the memo: pages cells from page
// first at slab offset pageOff, and the block cells from firstBlock at
// blockOff (in cells).
type memoRegion struct {
	first      addr.VPN
	pages      uint64
	firstBlock addr.VPBN
	pageOff    int
	blockOff   int
}

// reset sizes the memo for snap with stride counts per cell (and block
// cells when blocks is set) and clears it, reusing the slab when it is
// large enough.
func (m *costMemo) reset(snap trace.ProcessSnapshot, stride int, blocks bool) {
	m.stride = stride
	m.regions = m.regions[:0]
	cells := 0
	for _, r := range snap.Regions {
		if len(r.Pages) == 0 {
			continue
		}
		first, last := r.Pages[0], r.Pages[len(r.Pages)-1]
		mr := memoRegion{first: first, pages: uint64(last-first) + 1, pageOff: cells}
		cells += int(mr.pages)
		if blocks {
			fb, _ := addr.BlockSplit(first, 4)
			lb, _ := addr.BlockSplit(last, 4)
			mr.firstBlock, mr.blockOff = fb, cells
			cells += int(lb-fb) + 1
		}
		m.regions = append(m.regions, mr)
	}
	n := cells * stride
	if cap(m.slab) < n {
		m.slab = make([]uint16, n)
	} else {
		m.slab = m.slab[:n]
		clear(m.slab)
	}
}

// slot returns the memo cell of vpn's page, or of the block holding it
// when block is set; nil when vpn lies outside every region.
func (m *costMemo) slot(vpn addr.VPN, block bool) []uint16 {
	for i := range m.regions {
		r := &m.regions[i]
		off := uint64(vpn - r.first)
		if off >= r.pages {
			continue
		}
		cell := r.pageOff + int(off)
		if block {
			vpbn, _ := addr.BlockSplit(vpn, 4)
			cell = r.blockOff + int(vpbn-r.firstBlock)
		}
		return m.slab[cell*m.stride : (cell+1)*m.stride : (cell+1)*m.stride]
	}
	return nil
}

// walkLane charges the walks of the variants the driver does not walk
// (every non-canonical, non-linear one) for a stream of miss records.
// Each lane keeps a private memo and a private accumulator; because the
// cost is a pure function of the page, the merged totals are
// independent of which lane sees which miss.
type walkLane struct {
	// walked indexes the walked variants in st.variants; a memo cell
	// holds their line counts in this order.
	walked   []int
	variants []TableVariant
	builds   []*Build
	memo     *costMemo
	lines    lineCounts
	// l2 is set under an L2 TLB: every miss record then charges
	// l2ProbeLines to every non-linear class, the canonical one
	// included. pwc is the walked position of the walk-cached variant
	// (-1 if none), whose upper pwcUpper lines elide on missPWCHitBit
	// records.
	l2       bool
	pwc      int
	pwcUpper int
	// cur holds the costs of the record being accounted, and blockBuf
	// is the reused block-gather buffer; the walk keeps only the costs,
	// never the entries.
	cur      []uint32
	blockBuf []pte.Entry
}

func newWalkLane(st *figureState) *walkLane {
	w := &walkLane{
		variants: st.variants,
		builds:   st.builds,
		l2:       st.l2 != nil,
		pwc:      -1,
		pwcUpper: st.pwcUpper,
	}
	for i, v := range st.variants {
		if v.ReservedTLB > 0 || i == st.canonIdx {
			continue
		}
		if i == st.pwcIdx {
			w.pwc = len(w.walked)
		}
		w.walked = append(w.walked, i)
	}
	w.cur = make([]uint32, len(w.walked))
	return w
}

// run accounts one chunk's misses.
func (w *walkLane) run(miss []addr.V) error {
	for _, rec := range miss {
		if err := w.account(rec); err != nil {
			return err
		}
	}
	return nil
}

// account charges one miss record.
func (w *walkLane) account(rec addr.V) error {
	if w.l2 {
		for _, v := range w.variants {
			if v.ReservedTLB == 0 {
				w.lines[v.Class] += l2ProbeLines
			}
		}
		if rec&missL2HitBit != 0 {
			// L2 hit: no page-table walk happened at all.
			return nil
		}
	}
	if err := w.cost(rec); err != nil {
		return err
	}
	for k, i := range w.walked {
		l := int(w.cur[k])
		if k == w.pwc && rec&missPWCHitBit != 0 {
			l = walkcache.ElideLines(l, w.pwcUpper)
		}
		w.lines[w.variants[i].Class] += uint64(l)
	}
	return nil
}

// cost sets w.cur to one record's walk costs: from the memo, or by
// walking the variants on the first sight of its page (or block). A
// page outside every region is walked unmemoized, so an unmapped page
// fails with the walk's own "lost" error.
func (w *walkLane) cost(rec addr.V) error {
	va := rec &^ missRecMask
	block := rec&missBlockBit != 0
	cell := w.memo.slot(addr.VPNOf(va), block)
	for _, l := range cell {
		if l != 0 {
			for k, l := range cell {
				w.cur[k] = uint32(l)
			}
			return nil
		}
	}
	fits := true
	for k, i := range w.walked {
		l, err := w.walk(i, va, block)
		if err != nil {
			return err
		}
		w.cur[k] = uint32(l)
		fits = fits && l <= math.MaxUint16
	}
	if cell != nil && fits {
		for k, l := range w.cur {
			cell[k] = uint16(l)
		}
	}
	return nil
}

// walk returns the lines variant i touches for one page, or for the
// block holding it under Figure 11d prefetch (§4.4).
func (w *walkLane) walk(i int, va addr.V, block bool) (int, error) {
	v := w.variants[i]
	vpn := addr.VPNOf(va)
	if !block {
		_, cost, ok := w.builds[i].Table.Lookup(va)
		if !ok {
			return 0, fmt.Errorf("variant %q lost vpn %#x", v.Name, uint64(vpn))
		}
		return cost.Lines, nil
	}
	br, ok := w.builds[i].Table.(pagetable.BlockReader)
	if !ok {
		return 0, fmt.Errorf("variant %q cannot prefetch blocks", v.Name)
	}
	vpbn, _ := addr.BlockSplit(vpn, 4)
	entries, cost, found := br.AppendBlock(w.blockBuf[:0], vpbn, 4)
	if !found {
		return 0, fmt.Errorf("variant %q lost block %#x", v.Name, uint64(vpbn))
	}
	w.blockBuf = entries
	return cost.Lines, nil
}

// linLane runs every linear variant's TLB-pair state machine over the
// reference stream, in stream order, on one goroutine (§6.1): a main
// TLB shrunk by the reserved entries plus a small TLB caching mappings
// to the page-table pages themselves.
type linLane struct {
	f      Figure
	lins   []*linState
	lines  lineCounts
	nested uint64
}

// run advances every linear variant over one chunk of references.
func (l *linLane) run(vas []addr.V) error {
	for _, va := range vas {
		for _, ls := range l.lins {
			if err := l.service(ls, va); err != nil {
				return err
			}
		}
	}
	return nil
}

// service advances one linear variant's TLBs for one reference. A
// main-TLB miss costs the leaf-PTE lines; a nested miss on the
// page-table page's mapping adds the upper-level walk. The line count
// is later normalized by the 64-entry TLB's misses, charging the
// opportunity cost of the reserved entries exactly as §6.1 does.
func (l *linLane) service(ls *linState, va addr.V) error {
	res := ls.main.Access(va)
	if res.Hit {
		return nil
	}
	vpn := addr.VPNOf(va)

	if ls.l2 != nil {
		l.lines[ls.class] += l2ProbeLines
		if ls.l2.Access(va).Hit {
			// An L2 hit hands the base translation straight up: no PTE
			// array read, no nested page-table-page translation.
			ls.main.Insert(baseRefill(vpn))
			return nil
		}
	}

	if l.f == Fig11d && !res.SubblockMiss {
		// Block miss with prefetch: the block's PTEs are adjacent in the
		// PTE array.
		vpbn, _ := addr.BlockSplit(vpn, 4)
		entries, cost, ok := ls.table.AppendBlock(ls.blockBuf[:0], vpbn, 4)
		if !ok {
			return fmt.Errorf("linear lost block %#x", uint64(vpbn))
		}
		ls.blockBuf = entries
		l.lines[ls.class] += uint64(cost.Lines)
		ls.main.InsertBlock(vpbn, entries)
		if ls.l2 != nil {
			for _, e := range entries {
				ls.l2.Insert(e)
			}
		}
	} else {
		e, cost, ok := ls.table.Lookup(va)
		if !ok {
			return fmt.Errorf("linear lost vpn %#x", uint64(vpn))
		}
		l.lines[ls.class] += uint64(cost.Lines)
		ls.main.Insert(e)
		if ls.l2 != nil {
			ls.l2.Insert(e)
		}
	}

	// The leaf PTE lives in virtual memory: translating its page can
	// nest-miss in the reserved entries.
	leafVA := addr.VAOf(addr.VPN(linear.LeafPageIndex(vpn)))
	if !ls.pt.Access(leafVA).Hit {
		w := ls.upper
		if ls.pwc != nil && ls.pwc.Probe(vpn) {
			// A walk-cache hit skips the upper directories: only the
			// final directory line is read (ElideLines(upper, upper)).
			w = 1
		}
		l.lines[ls.class] += w
		ls.pt.Insert(pteForLeaf(vpn))
		l.nested++
	}
	return nil
}

// replayInline runs the three stages chunk by chunk on the calling
// goroutine, with no channels: the one-lane schedule.
func replayInline(gen *trace.Generator, buf *ReplayBuf, refs int, d *driver, w *walkLane, ll *linLane) error {
	vas := buf.take(replayChunk)
	defer func() { buf.put(vas) }()
	for refs > 0 {
		n := min(replayChunk, refs)
		vas = gen.Fill(vas, n)
		if _, err := d.run(vas, nil, w); err != nil {
			return err
		}
		if err := ll.run(vas); err != nil {
			return err
		}
		refs -= n
	}
	return nil
}

// shardChunk is one replay chunk in flight: the references, the packed
// miss records the driver extracted from them for the walk lanes (none
// when the driver accounts them itself), and the number of lanes still
// to consume the chunk before it can be recycled.
type shardChunk struct {
	vas     []addr.V
	miss    []addr.V
	pending atomic.Int32
}

// releaseChunk returns the chunk to the recycle channel once its last
// consumer is done with it.
func releaseChunk(c *shardChunk, recycle chan<- *shardChunk) {
	if c.pending.Add(-1) == 0 {
		recycle <- c
	}
}

// replayFanned is the fan-out/merge schedule. lanes is the total
// goroutine budget (>= 2): one driver (the calling goroutine), one
// linear lane, and lanes-2 walk lanes; at lanes == 2 the driver runs
// walkers[0] inline between generating chunks. Chunk buffers cycle
// through buf's free list, so the steady state allocates nothing.
func replayFanned(gen *trace.Generator, buf *ReplayBuf, refs int, d *driver, walkers []*walkLane, ll *linLane, lanes int) error {
	nWalk := lanes - 2
	// Enough chunks that no lane starves while others work, few enough
	// to stay cache-friendly; the channels hold every chunk at once, so
	// no send can block and the pipeline cannot deadlock.
	inflight := lanes + 2

	linCh := make(chan *shardChunk, inflight)
	walkCh := make(chan *shardChunk, inflight)
	recycle := make(chan *shardChunk, inflight)

	// Lane errors are recorded per lane and merged in fixed lane order,
	// so the reported error does not depend on goroutine timing. (Errors
	// only occur if a built table loses a mapping — a bug — but even
	// then the run must fail deterministically.)
	laneErrs := make([]error, 2+nWalk)
	var errMu sync.Mutex
	var failed atomic.Bool
	setErr := func(lane int, err error) {
		errMu.Lock()
		if laneErrs[lane] == nil {
			laneErrs[lane] = err
		}
		errMu.Unlock()
		failed.Store(true)
	}

	consumers := int32(2)
	var inline *walkLane
	if nWalk == 0 {
		consumers = 1
		inline = walkers[0]
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := range linCh {
			if !failed.Load() {
				if err := ll.run(c.vas); err != nil {
					setErr(1, err)
				}
			}
			releaseChunk(c, recycle)
		}
	}()
	for wi := 0; wi < nWalk; wi++ {
		wg.Add(1)
		go func(wi int, wk *walkLane) {
			defer wg.Done()
			for c := range walkCh {
				if !failed.Load() {
					if err := wk.run(c.miss); err != nil {
						setErr(2+wi, err)
					}
				}
				releaseChunk(c, recycle)
			}
		}(wi, walkers[wi])
	}

	var chunks []*shardChunk
	nextChunk := func() *shardChunk {
		select {
		case c := <-recycle:
			return c
		default:
		}
		if len(chunks) < inflight {
			c := &shardChunk{vas: buf.take(replayChunk)}
			if nWalk > 0 {
				c.miss = buf.take(replayChunk)
			}
			chunks = append(chunks, c)
			return c
		}
		return <-recycle
	}

	remaining := refs
	for remaining > 0 && !failed.Load() {
		c := nextChunk()
		n := min(replayChunk, remaining)
		c.vas = gen.Fill(c.vas, n)
		var derr error
		if c.miss, derr = d.run(c.vas, c.miss[:0], inline); derr != nil {
			setErr(0, derr)
			recycle <- c // never handed to a lane; recycle it directly
			break
		}
		c.pending.Store(consumers)
		if nWalk > 0 {
			walkCh <- c
		}
		linCh <- c
		remaining -= n
	}
	close(linCh)
	close(walkCh)
	wg.Wait()

	// Every chunk is back in recycle now — the lanes have drained their
	// channels and each chunk's last consumer pushed it. Return the
	// buffers to the free list for the worker's next cell.
	for range chunks {
		c := <-recycle
		buf.put(c.vas)
		buf.put(c.miss)
	}

	for _, e := range laneErrs {
		if e != nil {
			return e
		}
	}
	return nil
}
