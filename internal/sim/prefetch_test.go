package sim

// Guards for the allocation-free block-prefetch miss path (§4.4,
// Figure 11d): AppendBlock is the single gather behind LookupBlock, and
// the warmed driver and walk stages reuse their gather buffers and the
// TLB slabs.

import (
	"fmt"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// snapshotBlocks returns the distinct page blocks (factor 1<<logSBF) of
// a snapshot's mapped pages, in address order, at most max of them.
func snapshotBlocks(snap trace.ProcessSnapshot, logSBF uint, max int) []addr.VPBN {
	var out []addr.VPBN
	for _, vpn := range snap.AllPages() {
		vpbn, _ := addr.BlockSplit(vpn, logSBF)
		if len(out) == 0 || out[len(out)-1] != vpbn {
			out = append(out, vpbn)
		}
		if len(out) == max {
			break
		}
	}
	return out
}

// TestAppendBlockMatchesLookupBlock checks, over every Figure 11 build
// that can gather blocks, that appending a block after a prefix yields
// exactly LookupBlock's entries, cost and ok, and leaves the prefix
// untouched — whether the append must grow the buffer or fits in its
// spare capacity. Unmapped blocks and a second block geometry are
// included.
func TestAppendBlockMatchesLookupBlock(t *testing.T) {
	p, ok := trace.ProfileByName("mp3d")
	if !ok {
		t.Fatal("no mp3d profile")
	}
	snap := p.Snapshot()[0]
	model := memcost.NewModel(0)
	sentinel := pte.Entry{VPN: 0xdead, PPN: 0xbeef, Kind: pte.KindBase, Size: addr.Size4K}
	for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
		for _, v := range f.Variants() {
			b, err := BuildProcess(v, f.Mode(), snap, model)
			if err != nil {
				t.Fatal(err)
			}
			br, ok := b.Table.(pagetable.BlockReader)
			if !ok {
				continue
			}
			t.Run(fmt.Sprintf("%v/%s", f, v.Name), func(t *testing.T) {
				for _, logSBF := range []uint{3, 4} {
					blocks := snapshotBlocks(snap, logSBF, 256)
					blocks = append(blocks, blocks[len(blocks)-1]+1, 1<<30) // unmapped
					for _, vpbn := range blocks {
						want, wantCost, wantOK := br.LookupBlock(vpbn, logSBF)
						for _, spare := range []int{0, 32} {
							prefix := make([]pte.Entry, 3, 3+spare)
							for i := range prefix {
								prefix[i] = sentinel
							}
							got, cost, ok := br.AppendBlock(prefix, vpbn, logSBF)
							where := fmt.Sprintf("block %#x logSBF %d spare %d", uint64(vpbn), logSBF, spare)
							if cost != wantCost || ok != wantOK {
								t.Fatalf("%s: AppendBlock cost %+v ok %v, LookupBlock %+v %v",
									where, cost, ok, wantCost, wantOK)
							}
							if len(got) != len(prefix)+len(want) {
								t.Fatalf("%s: appended %d entries, LookupBlock returned %d",
									where, len(got)-len(prefix), len(want))
							}
							for i := range prefix {
								if prefix[i] != sentinel || got[i] != sentinel {
									t.Fatalf("%s: prefix[%d] overwritten", where, i)
								}
							}
							for i, e := range got[len(prefix):] {
								if e != want[i] {
									t.Fatalf("%s: entry %d = %+v, LookupBlock %+v", where, i, e, want[i])
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestFig11dBlockMissZeroAlloc pins that a warmed Figure 11d block miss
// allocates nothing: the driver's canonical gather and the reference
// TLB's block fill (and, under a hierarchy, the L2 refill and
// walk-cache probe), then the walk stage's gathers of the other
// variants. The memo is cleared each cycle so every block is walked
// again rather than served from it. The cycle prefetches four times as
// many blocks as the TLB has entries, so slots are reused.
func TestFig11dBlockMissZeroAlloc(t *testing.T) {
	p, ok := trace.ProfileByName("mp3d")
	if !ok {
		t.Fatal("no mp3d profile")
	}
	snap := p.Snapshot()[0]
	for _, mode := range []string{"flat", "l2+pwc"} {
		t.Run(mode, func(t *testing.T) {
			mcfg, err := ParseMMU(mode)
			if err != nil {
				t.Fatal(err)
			}
			cfg := AccessConfig{MMU: mcfg}
			cfg.fill()
			st, err := newFigureState(Fig11d, Fig11d.Variants(), snap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			blocks := snapshotBlocks(snap, 4, 4*cfg.Entries)
			if len(blocks) <= cfg.Entries {
				t.Fatalf("only %d blocks for %d TLB entries", len(blocks), cfg.Entries)
			}
			d := newDriver(Fig11d, st)
			w := newWalkLane(st)
			w.memo = (*ReplayBuf)(nil).takeMemo(snap, len(w.walked), true)
			cycle := func() {
				w.memo.reset(snap, len(w.walked), true)
				for _, vpbn := range blocks {
					va := addr.VAOf(addr.BlockJoin(vpbn, 0, 4))
					rec, err := d.miss(va, tlb.Result{})
					if err != nil {
						t.Fatal(err)
					}
					if err := w.account(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			cycle() // warm: the gather buffers at their working size
			if n := testing.AllocsPerRun(10, cycle); n != 0 {
				t.Fatalf("%d block misses: %v allocs per cycle, want 0", len(blocks), n)
			}
		})
	}
}
