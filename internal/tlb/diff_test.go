package tlb

// Differential suite for the resident-tag index: an indexed TLB and a
// Scan (linear-scan reference) TLB consume identical operation streams
// and must agree on every Access Result, every Translate answer, every
// Stats field, and — checked after every operation — the complete entry
// array including LRU ticks. Entry-array equality is the victim-choice
// check: if the two ever picked different victims their slot contents
// would diverge on the next insert.
//
// The same op semantics back FuzzTLBIndex (fuzz_test.go), so anything
// the fuzzer finds is replayable here.

import (
	"fmt"
	"math/rand"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
)

// diffPair is an indexed TLB and its scan-mode reference twin.
type diffPair struct {
	fast *TLB
	ref  *TLB
}

func newDiffPair(kind Kind, entries int, logSBF uint) (*diffPair, error) {
	fast, err := New(Config{Kind: kind, Entries: entries, LogSBF: logSBF})
	if err != nil {
		return nil, err
	}
	ref, err := New(Config{Kind: kind, Entries: entries, LogSBF: logSBF, Scan: true})
	if err != nil {
		return nil, err
	}
	if fast.idx == nil || ref.idx != nil {
		return nil, fmt.Errorf("mode mix-up: fast idx=%v ref idx=%v", fast.idx != nil, ref.idx != nil)
	}
	return &diffPair{fast: fast, ref: ref}, nil
}

// diffSpanSizes are the superpage sizes op streams draw from.
var diffSpanSizes = [...]addr.Size{addr.Size4K, addr.Size64K, addr.Size256K, addr.Size1M}

// diffEntry derives a PTE from raw op payload bits. The VPN universe is
// deliberately small (1024 pages) so streams revisit pages, overlap
// spans with singles, and insert duplicate tags.
func diffEntry(x uint64) pte.Entry {
	vpn := addr.VPN(x & 0x3ff)
	e := pte.Entry{VPN: vpn, PPN: addr.PPN(vpn) + 1000, Kind: pte.KindBase, Size: addr.Size4K}
	switch x >> 10 & 3 {
	case 2:
		e.Kind = pte.KindSuperpage
		e.Size = diffSpanSizes[x>>12&3]
	case 3:
		e.Kind = pte.KindPartial
		e.ValidMask = uint16(x >> 16)
	}
	return e
}

// applyOp drives both TLBs with one decoded operation and reports the
// first observable divergence. Opcode space: 0-4 access, 5 insert,
// 6 translate, 7 flush, 8 block prefetch (complete-subblock only,
// otherwise an insert).
func (p *diffPair) applyOp(opcode uint8, x uint64) error {
	switch opcode % 9 {
	case 5:
		p.fast.Insert(diffEntry(x))
		p.ref.Insert(diffEntry(x))
	case 6:
		va := addr.VAOf(addr.VPN(x & 0x3ff))
		fp, fok := p.fast.Translate(va)
		rp, rok := p.ref.Translate(va)
		if fp != rp || fok != rok {
			return fmt.Errorf("Translate(%#x): indexed (%d,%v) vs scan (%d,%v)", va, fp, fok, rp, rok)
		}
	case 7:
		p.fast.Flush()
		p.ref.Flush()
	case 8:
		if p.fast.Kind() != CompleteSubblock {
			p.fast.Insert(diffEntry(x))
			p.ref.Insert(diffEntry(x))
			break
		}
		base := diffEntry(x)
		vpbn, _ := addr.BlockSplit(base.VPN, p.fast.cfg.LogSBF)
		blockVPN := addr.VPN(uint64(vpbn) << p.fast.cfg.LogSBF)
		var es []pte.Entry
		for i := uint64(0); i < 4; i++ {
			off := addr.VPN(x >> (16 + 4*i) & (1<<p.fast.cfg.LogSBF - 1))
			es = append(es, pte.Entry{VPN: blockVPN + off, PPN: addr.PPN(blockVPN+off) + 2000})
		}
		p.fast.InsertBlock(vpbn, es)
		p.ref.InsertBlock(vpbn, es)
	default:
		va := addr.VAOf(addr.VPN(x&0x3ff)) + addr.V(x>>10&0xfff)
		fr := p.fast.Access(va)
		rr := p.ref.Access(va)
		if fr != rr {
			return fmt.Errorf("Access(%#x): indexed %+v vs scan %+v", va, fr, rr)
		}
	}
	if p.fast.stats != p.ref.stats {
		return fmt.Errorf("stats diverged: indexed %+v vs scan %+v", p.fast.stats, p.ref.stats)
	}
	return p.stateEqual()
}

// stateEqual compares the complete slot arrays, LRU ticks included.
func (p *diffPair) stateEqual() error {
	if p.fast.tick != p.ref.tick {
		return fmt.Errorf("tick diverged: %d vs %d", p.fast.tick, p.ref.tick)
	}
	for i := range p.fast.entries {
		f, r := &p.fast.entries[i], &p.ref.entries[i]
		if f.valid != r.valid || f.format != r.format || f.vpn != r.vpn ||
			f.size != r.size || f.vpbn != r.vpbn || f.mask != r.mask ||
			f.ppn != r.ppn || f.lru != r.lru {
			return fmt.Errorf("slot %d diverged: indexed %+v vs scan %+v", i, *f, *r)
		}
		if len(f.ppns) != len(r.ppns) {
			return fmt.Errorf("slot %d ppns length: %d vs %d", i, len(f.ppns), len(r.ppns))
		}
		for b := range f.ppns {
			if f.ppns[b] != r.ppns[b] {
				return fmt.Errorf("slot %d ppns[%d]: %d vs %d", i, b, f.ppns[b], r.ppns[b])
			}
		}
	}
	return nil
}

var diffKinds = [...]Kind{SinglePageSize, Superpage, PartialSubblock, CompleteSubblock}

// TestTLBIndexDifferential replays randomized op streams over every
// kind and several entry counts, including degenerate one- and
// two-entry TLBs where eviction churn (and therefore index removal,
// duplicate-minimum rescans, and victim agreement) is constant.
func TestTLBIndexDifferential(t *testing.T) {
	for _, kind := range diffKinds {
		for _, entries := range []int{1, 2, 3, 64} {
			t.Run(fmt.Sprintf("%v/e%d", kind, entries), func(t *testing.T) {
				for seed := int64(0); seed < 5; seed++ {
					p, err := newDiffPair(kind, entries, 4)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed*1000 + int64(entries)))
					for op := 0; op < 4000; op++ {
						if err := p.applyOp(uint8(rng.Intn(256)), rng.Uint64()); err != nil {
							t.Fatalf("seed %d op %d: %v", seed, op, err)
						}
					}
				}
			})
		}
	}
}

// TestTLBIndexCompleteSubblockSlotReuse churns sixteen times as many
// block tags as a complete-subblock TLB has entries, through both
// prefetch and single-page fills, so nearly every fill hands a slot —
// and its fixed window of the frame slab — to a new block. Besides
// indexed/scan agreement after every operation, it asserts that a
// reused slot translates exactly its new mask: an offset outside the
// mask misses, and no frame of the slot's previous block survives in
// its window.
func TestTLBIndexCompleteSubblockSlotReuse(t *testing.T) {
	const entries, tags = 4, 64
	p, err := newDiffPair(CompleteSubblock, entries, 4)
	if err != nil {
		t.Fatal(err)
	}
	// frame is a block-unique frame for (vpbn, off), so a stale frame
	// left by another block can never pass for a current one.
	frame := func(vpbn addr.VPBN, off uint64) addr.PPN { return addr.PPN(uint64(vpbn)<<8 | off | 1<<20) }
	rng := rand.New(rand.NewSource(42))
	var es []pte.Entry
	for op := 0; op < 4000; op++ {
		vpbn := addr.VPBN(rng.Intn(tags))
		if rng.Intn(2) == 0 {
			// Prefetch a sparse random subset of the block.
			es = es[:0]
			mask := rng.Uint32() & 0xffff
			for off := uint64(0); off < 16; off++ {
				if mask>>off&1 == 1 {
					vpn := addr.VPN(uint64(vpbn)<<4 | off)
					es = append(es, base(vpn, frame(vpbn, off)))
				}
			}
			p.fast.InsertBlock(vpbn, es)
			p.ref.InsertBlock(vpbn, es)
		} else {
			off := uint64(rng.Intn(16))
			e := base(addr.VPN(uint64(vpbn)<<4|off), frame(vpbn, off))
			p.fast.Insert(e)
			p.ref.Insert(e)
		}
		if p.fast.stats != p.ref.stats {
			t.Fatalf("op %d: stats diverged: indexed %+v vs scan %+v", op, p.fast.stats, p.ref.stats)
		}
		if err := p.stateEqual(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		for _, tl := range []*TLB{p.fast, p.ref} {
			for i := range tl.entries {
				slot := &tl.entries[i]
				if !slot.valid {
					continue
				}
				for off := uint64(0); off < 16; off++ {
					va := addr.VAOf(addr.VPN(uint64(slot.vpbn)<<4 | off))
					ppn, ok := tl.Translate(va)
					if slot.mask>>off&1 == 0 {
						if ok {
							t.Fatalf("op %d: slot %d (block %#x, mask %#04x) translates offset %d to %#x",
								op, i, uint64(slot.vpbn), slot.mask, off, uint64(ppn))
						}
						if slot.ppns[off] != 0 {
							t.Fatalf("op %d: slot %d (block %#x) keeps stale frame %#x at offset %d",
								op, i, uint64(slot.vpbn), uint64(slot.ppns[off]), off)
						}
						continue
					}
					if !ok || ppn != frame(slot.vpbn, off) {
						t.Fatalf("op %d: slot %d offset %d = (%#x,%v), want %#x",
							op, i, off, uint64(ppn), ok, uint64(frame(slot.vpbn, off)))
					}
				}
			}
		}
	}
	if p.fast.stats.Replacements < 1000 {
		t.Fatalf("only %d replacements: the stream did not churn slots", p.fast.stats.Replacements)
	}
}

// TestTLBIndexDuplicateTags drives the duplicate-tag corner cases the
// randomized streams only hit probabilistically: repeated identical
// single-page inserts, a span shadowing a single of the same base, and
// same-VPBN partial-subblock entries with different masks — the one
// shape that forces the index's slot-order fallback among duplicates.
func TestTLBIndexDuplicateTags(t *testing.T) {
	t.Run("duplicate-singles", func(t *testing.T) {
		p, err := newDiffPair(SinglePageSize, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := p.applyOp(5, 7); err != nil { // same VPN 7 six times
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := p.applyOp(0, uint64(i%3)*3); err != nil { // evict some dups
				t.Fatal(err)
			}
			if err := p.applyOp(5, uint64(16+i)); err != nil {
				t.Fatal(err)
			}
			if err := p.applyOp(0, 7); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("span-shadows-single", func(t *testing.T) {
		p, err := newDiffPair(Superpage, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Single for page 0x21, then a 64KB span covering 0x20..0x2f.
		if err := p.applyOp(5, 0x21); err != nil {
			t.Fatal(err)
		}
		if err := p.applyOp(5, 0x21|2<<10|1<<12); err != nil {
			t.Fatal(err)
		}
		for vpn := uint64(0x20); vpn < 0x30; vpn++ {
			if err := p.applyOp(0, vpn); err != nil {
				t.Fatal(err)
			}
			if err := p.applyOp(6, vpn); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("psb-mask-duplicates", func(t *testing.T) {
		p, err := newDiffPair(PartialSubblock, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Two entries for the same block with disjoint masks: the lowest
		// slot does not cover subblocks the higher slot does.
		if err := p.applyOp(5, 0x40|3<<10|0x00f0<<16); err != nil {
			t.Fatal(err)
		}
		if err := p.applyOp(5, 0x40|3<<10|0x000f<<16); err != nil {
			t.Fatal(err)
		}
		for vpn := uint64(0x40); vpn < 0x50; vpn++ {
			if err := p.applyOp(0, vpn); err != nil {
				t.Fatal(err)
			}
			if err := p.applyOp(6, vpn); err != nil {
				t.Fatal(err)
			}
		}
	})
}
