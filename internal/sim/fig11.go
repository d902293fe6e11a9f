package sim

// The Figure 11 replay: one process's reference stream decomposed into
// three stages run chunk by chunk on the calling goroutine.
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
//     both the refill and the clustered class's lines — and hands each
//     miss record to the walk stage.
//   - The walk stage charges the other variants' walk costs, memoized
//     per page (and per block under Figure 11d) in a dense costMemo.
//   - The linear stage then runs every linear variant's TLB-pair state
//     machine over the same chunk with live lookups.
//
// Parallelism lives one level up: the engine fans processes and
// workloads over its cell pool. The page tables' internal operation
// Counters are the only observable difference from a per-reference
// loop: memoized walks count once per page instead of once per miss,
// and no rendered figure reads them. DESIGN.md §10 states the full
// contract; refmodel_test.go pins the replay to the unmemoized
// reference loop field by field.

import (
	"fmt"
	"math"

	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// runProcess replays one process's trace through the figure's TLBs and
// page tables.
func runProcess(f Figure, snap trace.ProcessSnapshot, refs int, cfg AccessConfig) (lineCounts, uint64, uint64, error) {
	st, err := newFigureState(f, f.Variants(), snap, cfg)
	if err != nil {
		return lineCounts{}, 0, 0, err
	}
	gen := trace.NewGenerator(snap, cfg.Seed*31+1)
	d := newDriver(f, st)
	w := newWalkLane(st)
	w.memo = cfg.Buf.takeMemo(snap, len(w.walked), f == Fig11d)
	ll := &linLane{f: f, lins: st.lins}
	if err := replayInline(gen, cfg.Buf, refs, d, w, ll); err != nil {
		return lineCounts{}, 0, 0, err
	}

	// Exact merge: plain uint64 adds over disjoint accumulators, in a
	// fixed stage order.
	var lines lineCounts
	lines.add(&d.lines)
	lines.add(&ll.lines)
	lines.add(&w.lines)
	return lines, d.misses, ll.nested, nil
}

// A miss record is the missing address itself. The generator 8-aligns
// every address, so bits 0-2 are free to carry the bits the walk stage
// needs: whether a Fig11d miss was a full-block miss (prefetch walk)
// rather than a subblock miss (single-page walk), whether the L2 TLB
// serviced the miss (no walk at all, only the probe line), and whether
// the page-walk cache hit (the tree-walked variant's upper levels
// elide).
// The stateful L2 and PWC evolve only on the driver, in stream order;
// the walk stage turns these bits into pure per-record arithmetic.
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

// run probes the reference TLB with one chunk in stream order and has
// w account each miss record at once.
func (d *driver) run(vas []addr.V, w *walkLane) error {
	for _, va := range vas {
		res := d.st.refTLB.Access(va)
		if res.Hit {
			continue
		}
		rec, err := d.miss(va, res)
		if err == nil {
			err = w.account(rec)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
// (every non-canonical, non-linear one) for a stream of miss records,
// from a memo of per-page costs: the cost is a pure function of the
// page over immutable tables.
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
// reference stream, in stream order (§6.1): a main
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
// goroutine.
func replayInline(gen *trace.Generator, buf *ReplayBuf, refs int, d *driver, w *walkLane, ll *linLane) error {
	vas := buf.take(replayChunk)
	defer func() { buf.put(vas) }()
	for refs > 0 {
		n := min(replayChunk, refs)
		vas = gen.Fill(vas, n)
		if err := d.run(vas, w); err != nil {
			return err
		}
		if err := ll.run(vas); err != nil {
			return err
		}
		refs -= n
	}
	return nil
}
