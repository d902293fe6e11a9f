package sim

// Sharded intra-cell replay: runProcess decomposed into a fan-out/merge
// pipeline that produces byte-identical results at every lane count.
//
// The serial replay interleaves four independent state machines per
// reference: (1) the reference TLB plus its canonical refill, (2) the
// read-only variant walks charged per miss, and (3) each linear
// variant's private TLB pair. Only (1) and (3) carry state from one
// reference to the next, and they share nothing with each other; (2) is
// a pure function of the missing page over immutable page tables. The
// pipeline exploits exactly that decomposition:
//
//   - The driver lane generates the reference stream in chunks, runs
//     the reference TLB over every reference in stream order, refills
//     it from a memoized canonical lookup, and records each miss.
//   - A single linear lane consumes the chunks in stream order and runs
//     serviceLinear's state machine, with the lookup/walk costs
//     memoized per page (exact: lookups on built tables are pure).
//   - A pool of walk lanes consumes the per-chunk miss records and
//     accumulates the variant walk costs into per-lane counters. Any
//     assignment of misses to lanes yields the same totals because
//     each miss contributes a pure per-page cost exactly once and
//     uint64 sums over disjoint subsets commute.
//
// The merge is index-ordered and exact — no atomics on the hot path, no
// order-dependent reduction. The only observable difference from the
// serial path is the page tables' internal operation Counters (memoized
// lookups count once per page instead of once per miss); those counters
// are never rendered by the figure path. DESIGN.md §10 states the full
// contract; shard_test.go pins serial/sharded identity field by field.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// shardChunk is one replay chunk in flight: the references, the packed
// miss records the driver extracted from them, and the number of lanes
// still to consume the chunk before it can be recycled.
type shardChunk struct {
	vas     []addr.V
	miss    []addr.V
	pending atomic.Int32
}

// Miss records ride in the same []addr.V buffers as references so both
// come from the ReplayBuf free list. The generator 8-aligns every
// address, so bits 0-2 are free to carry the bits the walk lanes need:
// whether a Fig11d miss was a full-block miss (prefetch walk) rather
// than a subblock miss (single-page walk), whether the L2 TLB serviced
// the miss (no walk at all, only the probe line), and whether the
// page-walk cache hit (the tree-walked variant's upper levels elide).
// The stateful L2 and PWC evolve only on the driver lane, in stream
// order; the walk lanes turn these bits into pure per-record arithmetic,
// so lane assignment still cannot affect the totals.
const (
	missBlockBit  = 1
	missL2HitBit  = 2
	missPWCHitBit = 4
	missRecMask   = missBlockBit | missL2HitBit | missPWCHitBit
)

// releaseChunk returns the chunk to the recycle channel once its last
// consumer is done with it.
func releaseChunk(c *shardChunk, recycle chan<- *shardChunk) {
	if c.pending.Add(-1) == 0 {
		recycle <- c
	}
}

// canonMemo services the reference TLB's misses on the driver lane,
// memoizing the canonical table's per-page lookup results. The memo is
// exact: built page tables are immutable during replay, so Lookup and
// LookupBlock are pure functions of the page, and the refill carries no
// cost (the walk lanes charge the clustered variant's walk on their own).
// Unlike the serial serviceMiss, which reuses that variant walk's result,
// the driver walks the canonical table independently: the walk lanes run
// concurrently with it, and the separate walk keeps this pipeline an
// independent check of the serial path.
type canonMemo struct {
	f      Figure
	table  pagetable.PageTable
	pages  map[addr.VPN]pte.Entry
	blocks map[addr.VPBN][]pte.Entry
	// l2 is the driver's L2 TLB (nil when flat): a full miss fills it
	// with the same entries the reference TLB receives, mirroring the
	// serial serviceMiss order.
	l2 *swtlb.Cache
}

func newCanonMemo(f Figure, st *figureState) *canonMemo {
	return &canonMemo{
		f:      f,
		table:  st.builds[st.canonIdx].Table,
		pages:  make(map[addr.VPN]pte.Entry),
		blocks: make(map[addr.VPBN][]pte.Entry),
		l2:     st.l2,
	}
}

// service refills the reference TLB for one miss and returns the packed
// miss record for the walk lanes.
func (m *canonMemo) service(va addr.V, res tlb.Result, refTLB *tlb.TLB) (addr.V, error) {
	vpn := addr.VPNOf(va)
	if m.f == Fig11d && !res.SubblockMiss {
		vpbn, _ := addr.BlockSplit(vpn, 4)
		entries, ok := m.blocks[vpbn]
		if !ok {
			br, isBR := m.table.(pagetable.BlockReader)
			if !isBR {
				return 0, fmt.Errorf("canonical table cannot prefetch blocks")
			}
			var found bool
			entries, _, found = br.LookupBlock(vpbn, 4)
			if !found {
				return 0, fmt.Errorf("canonical table lost block %#x", uint64(vpbn))
			}
			m.blocks[vpbn] = entries
		}
		refTLB.InsertBlock(vpbn, entries)
		if m.l2 != nil {
			for _, e := range entries {
				m.l2.Insert(e)
			}
		}
		return va | missBlockBit, nil
	}
	e, ok := m.pages[vpn]
	if !ok {
		var found bool
		e, _, found = m.table.Lookup(va)
		if !found {
			return 0, fmt.Errorf("canonical table lost vpn %#x", uint64(vpn))
		}
		m.pages[vpn] = e
	}
	refTLB.Insert(e)
	if m.l2 != nil {
		m.l2.Insert(e)
	}
	return va, nil
}

// walkCost is a memoized per-page (or per-block) variant walk: lines
// touched per accounting class. uint32 suffices — a single walk touches
// at most a few hundred lines.
type walkCost [numLineClasses]uint32

// addCost merges one memoized walk into the accumulator.
func (lc *lineCounts) addCost(c *walkCost) {
	for i := range lc {
		lc[i] += uint64(c[i])
	}
}

// addCostElided merges one memoized walk with the walk-cached class's
// upper levels elided — the pure-arithmetic form of a page-walk-cache
// hit (walkcache.ElideLines). Classes are unique per variant
// (newFigureState validates), so the elision touches only the
// tree-walked variant's lines.
func (lc *lineCounts) addCostElided(c *walkCost, cls LineClass, upper uint32) {
	for i := range lc {
		if LineClass(i) == cls {
			lc[i] += uint64(walkcache.ElideLines(int(c[i]), int(upper)))
		} else {
			lc[i] += uint64(c[i])
		}
	}
}

// walkLane replays miss records through the read-only variant walks of
// serviceMiss, memoizing the cost per page. Each lane keeps a private
// memo and a private accumulator; because the cost is a pure function
// of the page, the merged totals are independent of which lane sees
// which miss.
type walkLane struct {
	variants []TableVariant
	builds   []*Build
	lines    lineCounts
	pages    map[addr.VPN]*walkCost
	blocks   map[addr.VPBN]*walkCost
	// l2Probe (nil when flat) is the constant per-miss L2 probe charge:
	// l2ProbeLines for every non-reserved variant class. pwcClass and
	// pwcUpper drive the elided merge on missPWCHitBit records.
	l2Probe  *walkCost
	pwcClass LineClass
	pwcUpper uint32
	// blockBuf is the reused block-gather buffer; walkBlock keeps only
	// the costs, never the entries.
	blockBuf []pte.Entry
}

func newWalkLane(st *figureState) *walkLane {
	w := &walkLane{
		variants: st.variants,
		builds:   st.builds,
		pages:    make(map[addr.VPN]*walkCost),
		blocks:   make(map[addr.VPBN]*walkCost),
	}
	if st.l2 != nil {
		w.l2Probe = new(walkCost)
		for _, v := range st.variants {
			if v.ReservedTLB == 0 {
				w.l2Probe[v.Class] += l2ProbeLines
			}
		}
	}
	if st.pwcIdx >= 0 {
		w.pwcClass = st.variants[st.pwcIdx].Class
		w.pwcUpper = uint32(st.pwcUpper)
	}
	return w
}

// run accounts one chunk's misses.
func (w *walkLane) run(miss []addr.V) error {
	for _, rec := range miss {
		va := rec &^ missRecMask
		vpn := addr.VPNOf(va)
		if w.l2Probe != nil {
			w.lines.addCost(w.l2Probe)
			if rec&missL2HitBit != 0 {
				// L2 hit: no page-table walk happened at all.
				continue
			}
		}
		var c *walkCost
		if rec&missBlockBit != 0 {
			vpbn, _ := addr.BlockSplit(vpn, 4)
			var ok bool
			if c, ok = w.blocks[vpbn]; !ok {
				var err error
				if c, err = w.walkBlock(vpbn); err != nil {
					return err
				}
				w.blocks[vpbn] = c
			}
		} else {
			var ok bool
			if c, ok = w.pages[vpn]; !ok {
				var err error
				if c, err = w.walkPage(va); err != nil {
					return err
				}
				w.pages[vpn] = c
			}
		}
		if rec&missPWCHitBit != 0 {
			w.lines.addCostElided(c, w.pwcClass, w.pwcUpper)
		} else {
			w.lines.addCost(c)
		}
	}
	return nil
}

// walkPage mirrors serviceMiss's single-page variant loop.
func (w *walkLane) walkPage(va addr.V) (*walkCost, error) {
	c := new(walkCost)
	for i, v := range w.variants {
		if v.ReservedTLB > 0 {
			continue
		}
		_, cost, ok := w.builds[i].Table.Lookup(va)
		if !ok {
			return nil, fmt.Errorf("variant %q lost vpn %#x", v.Name, uint64(addr.VPNOf(va)))
		}
		c[v.Class] += uint32(cost.Lines)
	}
	return c, nil
}

// walkBlock mirrors serviceMiss's block-prefetch variant loop (§4.4).
func (w *walkLane) walkBlock(vpbn addr.VPBN) (*walkCost, error) {
	c := new(walkCost)
	for i, v := range w.variants {
		if v.ReservedTLB > 0 {
			continue
		}
		br, ok := w.builds[i].Table.(pagetable.BlockReader)
		if !ok {
			return nil, fmt.Errorf("variant %q cannot prefetch blocks", v.Name)
		}
		entries, cost, found := br.AppendBlock(w.blockBuf[:0], vpbn, 4)
		if !found {
			return nil, fmt.Errorf("variant %q lost block %#x", v.Name, uint64(vpbn))
		}
		w.blockBuf = entries
		c[v.Class] += uint32(cost.Lines)
	}
	return c, nil
}

// linPage memoizes one page's linear lookup: the entry reinserted into
// the main TLB and the walk's line cost.
type linPage struct {
	e     pte.Entry
	lines uint32
}

// linBlock memoizes one block's linear lookup for Fig11d prefetch.
type linBlock struct {
	entries []pte.Entry
	lines   uint32
}

// linMemo is one linear variant's lookup memo.
type linMemo struct {
	pages  map[addr.VPN]linPage
	blocks map[addr.VPBN]linBlock
	// upper is the nested-walk line cost. UpperWalkCost is a constant of
	// the table's configuration (levels and upper-walk mode), so it is
	// hoisted out of the loop entirely.
	upper uint32
}

// linLane runs every linear variant's TLB-pair state machine over the
// reference stream, in stream order, on one goroutine. It is
// serviceLinear with the pure table lookups memoized; the TLB state
// evolution is untouched, so hits, misses, and nested misses land
// exactly as they do serially.
type linLane struct {
	f      Figure
	lins   []*linState
	memos  []linMemo
	lines  lineCounts
	nested uint64
}

func newLinLane(f Figure, st *figureState) *linLane {
	l := &linLane{f: f, lins: st.lins, memos: make([]linMemo, len(st.lins))}
	for i, ls := range st.lins {
		l.memos[i] = linMemo{
			pages:  make(map[addr.VPN]linPage),
			blocks: make(map[addr.VPBN]linBlock),
			upper:  uint32(ls.table.UpperWalkCost(0).Lines),
		}
	}
	return l
}

// run advances every linear variant over one chunk of references.
func (l *linLane) run(vas []addr.V) error {
	for _, va := range vas {
		for li, ls := range l.lins {
			if err := l.service(li, ls, va); err != nil {
				return err
			}
		}
	}
	return nil
}

// service is serviceLinear with memoized lookups.
func (l *linLane) service(li int, ls *linState, va addr.V) error {
	res := ls.main.Access(va)
	if res.Hit {
		return nil
	}
	vpn := addr.VPNOf(va)
	m := &l.memos[li]

	if ls.l2 != nil {
		l.lines[ls.class] += l2ProbeLines
		if ls.l2.Access(va).Hit {
			ls.main.Insert(baseRefill(vpn))
			return nil
		}
	}

	if l.f == Fig11d && !res.SubblockMiss {
		vpbn, _ := addr.BlockSplit(vpn, 4)
		b, ok := m.blocks[vpbn]
		if !ok {
			entries, cost, found := ls.table.LookupBlock(vpbn, 4)
			if !found {
				return fmt.Errorf("linear lost block %#x", uint64(vpbn))
			}
			b = linBlock{entries: entries, lines: uint32(cost.Lines)}
			m.blocks[vpbn] = b
		}
		l.lines[ls.class] += uint64(b.lines)
		ls.main.InsertBlock(vpbn, b.entries)
		if ls.l2 != nil {
			for _, e := range b.entries {
				ls.l2.Insert(e)
			}
		}
	} else {
		p, ok := m.pages[vpn]
		if !ok {
			e, cost, found := ls.table.Lookup(va)
			if !found {
				return fmt.Errorf("linear lost vpn %#x", uint64(vpn))
			}
			p = linPage{e: e, lines: uint32(cost.Lines)}
			m.pages[vpn] = p
		}
		l.lines[ls.class] += uint64(p.lines)
		ls.main.Insert(p.e)
		if ls.l2 != nil {
			ls.l2.Insert(p.e)
		}
	}

	leafVA := addr.VAOf(addr.VPN(linear.LeafPageIndex(vpn)))
	if !ls.pt.Access(leafVA).Hit {
		w := uint64(m.upper)
		if ls.pwc != nil && ls.pwc.Probe(vpn) {
			// Only the final directory line is read on a nested-walk
			// cache hit (ElideLines(upper, upper) == 1).
			w = 1
		}
		l.lines[ls.class] += w
		ls.pt.Insert(pteForLeaf(vpn))
		l.nested++
	}
	return nil
}

// runProcessSharded is the fan-out/merge replay pipeline. lanes is the
// total goroutine budget (>= 2): one driver (the calling goroutine),
// one linear lane, and lanes-2 walk lanes; at lanes == 2 the driver
// runs the walks inline between generating chunks. Chunk buffers cycle
// through cfg.Buf's free list, so the steady state allocates nothing.
func runProcessSharded(f Figure, snap trace.ProcessSnapshot, refs int, cfg AccessConfig, lanes int) (lineCounts, uint64, uint64, uint64, error) {
	st, err := newFigureState(f, f.Variants(), snap, cfg)
	if err != nil {
		return lineCounts{}, 0, 0, 0, err
	}

	nWalk := lanes - 2
	if nWalk < 0 {
		nWalk = 0
	}
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
	if nWalk == 0 {
		consumers = 1
	}

	var wg sync.WaitGroup

	ll := newLinLane(f, st)
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

	walkers := make([]*walkLane, nWalk)
	for wi := range walkers {
		wk := newWalkLane(st)
		walkers[wi] = wk
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
		}(wi, wk)
	}
	var inline *walkLane
	if nWalk == 0 {
		inline = newWalkLane(st)
	}

	gen := trace.NewGenerator(snap, cfg.Seed*31+1)
	canon := newCanonMemo(f, st)
	buf := cfg.Buf
	var chunks []*shardChunk
	nextChunk := func() *shardChunk {
		select {
		case c := <-recycle:
			return c
		default:
		}
		if len(chunks) < inflight {
			c := &shardChunk{vas: buf.take(replayChunk), miss: buf.take(replayChunk)}
			chunks = append(chunks, c)
			return c
		}
		return <-recycle
	}

	var misses uint64
	remaining := refs
	for remaining > 0 && !failed.Load() {
		c := nextChunk()
		n := replayChunk
		if n > remaining {
			n = remaining
		}
		c.vas = gen.Fill(c.vas, n)
		c.miss = c.miss[:0]
		var derr error
		for _, va := range c.vas {
			res := st.refTLB.Access(va)
			if res.Hit {
				continue
			}
			misses++
			var rec addr.V
			if st.l2 != nil && st.l2.Access(va).Hit {
				// L2 hit: base-page refill, no walk; the record tells
				// the walk lanes to charge only the probe line.
				st.refTLB.Insert(baseRefill(addr.VPNOf(va)))
				rec = va | missL2HitBit
			} else {
				var err error
				rec, err = canon.service(va, res, st.refTLB)
				if err != nil {
					derr = err
					break
				}
				if st.pwcIdx >= 0 && st.pwcs[st.pwcIdx].Probe(addr.VPNOf(va)) {
					rec |= missPWCHitBit
				}
			}
			c.miss = append(c.miss, rec)
		}
		if derr == nil && inline != nil {
			derr = inline.run(c.miss)
		}
		if derr != nil {
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
			return lineCounts{}, 0, 0, 0, e
		}
	}

	// Index-ordered exact merge: plain uint64 adds over disjoint
	// accumulators, in a fixed lane order.
	var lines lineCounts
	lines.add(&ll.lines)
	if inline != nil {
		lines.add(&inline.lines)
	}
	for _, wk := range walkers {
		lines.add(&wk.lines)
	}
	return lines, misses, uint64(refs), ll.nested, nil
}
