package service

// Replicated-table benchmarks, snapshotted by `make bench-replica` into
// BENCH_replica.json. Two curves matter: read scaling (goroutines ×
// replication factor, where R>1 must pull ahead of R=1 once several
// readers contend, and Replicated(1) must stay within noise of the
// plain single-table Service), and the write-broadcast cost that pays
// for it (every Map/Unmap locks and updates all R replicas).
//
// Each read benchmark comes in two working sets, reported with its
// measured hits/op. The Hit variants cycle through pages that occupy
// distinct slots of the 256-slot translation cache, so after warm-up
// every lookup is a lock-free cache hit. The Miss variants stride the
// 4096-page set, 16× the cache, so nearly every lookup takes the
// stripe read lock, walks and fills — the lock whose cache line
// replication delocalizes. The hit path scales at every factor; the
// miss path shows the contention replication is built to remove.
//
// The read curves only separate on a multi-core host: with GOMAXPROCS=1
// the goroutines timeslice one CPU, no lock cache line ever bounces
// between cores, and every (R, g) point collapses to the serial cost.
// The checked-in snapshot records the GOMAXPROCS it ran with — read its
// context block before comparing curves.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

const (
	benchPages      = 4096
	benchCacheSlots = 256
	benchBase       = addr.VPN(0x1000)
)

func benchReplicated(b *testing.B, replicas int) *Replicated {
	b.Helper()
	r := MustNewReplicated(
		ReplicatedConfig{Config: Config{Stripes: 64, CacheSlots: benchCacheSlots}, Replicas: replicas},
		func(int) (pagetable.PageTable, error) {
			return core.MustNew(core.Config{Buckets: 4096}), nil
		})
	for i := 0; i < benchPages; i++ {
		if err := r.Map(benchBase+addr.VPN(i), addr.PPN(0x8000+i), pte.AttrR); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// benchReadSet returns the pages a read benchmark cycles through and
// the step between one goroutine's consecutive lookups. The hit set is
// the first pages whose slots (as slotFor places them) are distinct,
// half the cache; the miss set is every page at a coprime stride, in
// cache-hostile order.
func benchReadSet[P comparable](hit bool, slotFor func(addr.VPN) P) ([]addr.VPN, int) {
	if !hit {
		pages := make([]addr.VPN, benchPages)
		for i := range pages {
			pages[i] = benchBase + addr.VPN(i)
		}
		return pages, 61
	}
	seen := map[P]bool{}
	var pages []addr.VPN
	for i := 0; i < benchPages && len(pages) < benchCacheSlots/2; i++ {
		vpn := benchBase + addr.VPN(i)
		if p := slotFor(vpn); !seen[p] {
			seen[p] = true
			pages = append(pages, vpn)
		}
	}
	return pages, 1
}

// runReaders splits b.N lookups over readers goroutines, goroutine g
// resolving pages through lookup(g) from its own starting offset.
func runReaders(b *testing.B, readers int, pages []addr.VPN, stride int, lookup func(g int) func(addr.V) (pte.Entry, bool)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var lost atomic.Uint64
	var wg sync.WaitGroup
	per := b.N/readers + 1
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			look := lookup(g)
			off := g * 37
			for i := 0; i < per; i++ {
				if _, ok := look(addr.VAOf(pages[off%len(pages)])); !ok {
					lost.Add(1)
				}
				off += stride
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	if n := lost.Load(); n != 0 {
		b.Fatalf("%d lookups missed a mapped page", n)
	}
}

// BenchmarkReplicatedReadHit and BenchmarkReplicatedReadMiss sweep
// readers × replication factor. Each goroutine binds to its own node
// (goroutine g → node g), so at R>=g every reader owns a private
// replica — private stripe locks, private cache slots — while at R=1
// all of them share one table's stripes and slots.
func BenchmarkReplicatedReadHit(b *testing.B)  { benchReplicatedRead(b, true) }
func BenchmarkReplicatedReadMiss(b *testing.B) { benchReplicatedRead(b, false) }

func benchReplicatedRead(b *testing.B, hit bool) {
	for _, replicas := range []int{1, 2, 4, 8} {
		for _, readers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("R%d/g%d", replicas, readers), func(b *testing.B) {
				r := benchReplicated(b, replicas)
				pages, stride := benchReadSet(hit, r.replicas[0].slotFor)
				nodes := make([]*Node, readers)
				for g := range nodes {
					nodes[g] = r.Node(g)
					for _, vpn := range pages {
						nodes[g].Lookup(addr.VAOf(vpn))
					}
					nodes[g].ResetCost()
				}
				runReaders(b, readers, pages, stride, func(g int) func(addr.V) (pte.Entry, bool) { return nodes[g].Lookup })
				var c NodeCost
				for _, n := range nodes {
					c.Merge(n.Cost())
				}
				b.ReportMetric(float64(c.Hits)/float64(c.Lookups()), "hits/op")
			})
		}
	}
}

// BenchmarkSingleServiceReadHit and BenchmarkSingleServiceReadMiss are
// the un-replicated baseline: the plain striped Service under the same
// working sets, stripe count, cache size and reader counts.
// Replicated(1)'s read path must stay within noise of these — the
// replication wrapper may not tax the factor-1 case.
func BenchmarkSingleServiceReadHit(b *testing.B)  { benchSingleServiceRead(b, true) }
func BenchmarkSingleServiceReadMiss(b *testing.B) { benchSingleServiceRead(b, false) }

func benchSingleServiceRead(b *testing.B, hit bool) {
	for _, readers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("g%d", readers), func(b *testing.B) {
			s := MustWrap(core.MustNew(core.Config{Buckets: 4096}),
				Config{Stripes: 64, CacheSlots: benchCacheSlots})
			for i := 0; i < benchPages; i++ {
				if err := s.Map(benchBase+addr.VPN(i), addr.PPN(0x8000+i), pte.AttrR); err != nil {
					b.Fatal(err)
				}
			}
			pages, stride := benchReadSet(hit, s.slotFor)
			for _, vpn := range pages {
				s.Lookup(addr.VAOf(vpn))
			}
			st0 := s.Stats()
			runReaders(b, readers, pages, stride, func(int) func(addr.V) (pte.Entry, bool) { return s.Lookup })
			st := s.Stats()
			b.ReportMetric(float64(st.Hits-st0.Hits)/float64(st.Lookups()-st0.Lookups()), "hits/op")
		})
	}
}

// BenchmarkReplicatedWrite measures the broadcast write path: each
// Map/Unmap pair locks the stripe on every replica in order, applies,
// bumps the sequence stamps and invalidates — so ns/op should climb
// roughly linearly with the factor. This is the cost curve the
// replication experiment's shootdown model prices in lines.
func BenchmarkReplicatedWrite(b *testing.B) {
	for _, replicas := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("R%d", replicas), func(b *testing.B) {
			r := benchReplicated(b, replicas)
			// Write into a window above the read set so the pairs never
			// collide with the populated pages.
			base := benchBase + benchPages
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vpn := base + addr.VPN((i>>1)&1023)
				if i&1 == 0 {
					if err := r.Map(vpn, addr.PPN(0x20000+(i&1023)), pte.AttrR|pte.AttrW); err != nil {
						b.Fatal(err)
					}
				} else if err := r.Unmap(vpn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
