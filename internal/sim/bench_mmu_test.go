package sim

// End-to-end benchmarks for the translation hierarchy: the full Figure
// 11a replay under each -mmu pipeline, at one lane and four. flat is the
// pre-hierarchy baseline (and must stay within noise of
// BenchmarkFigure11Replay/e64/indexed — the hierarchy plumbing is free
// when unconfigured); l2 adds the per-miss L2 probe and its insert
// traffic; l2+pwc adds the walk-cache probe on the tree-walked
// variants. `make bench-mmu` snapshots these plus the internal/mmu
// micro-benchmarks into BENCH_mmu.json.

import (
	"fmt"
	"testing"

	"clusterpt/internal/trace"
)

func BenchmarkFigure11Hierarchy(b *testing.B) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	for _, mode := range []string{"flat", "l2", "l2+pwc"} {
		mcfg, err := ParseMMU(mode)
		if err != nil {
			b.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/s%d", mode, shards), func(b *testing.B) {
				cfg := AccessConfig{Refs: 400_000, Seed: 1, Shards: shards, Buf: &ReplayBuf{}, MMU: mcfg}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := RunFigure11(Fig11a, p, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
