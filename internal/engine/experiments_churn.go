package engine

import (
	"context"
	"fmt"

	"clusterpt/internal/report"
	"clusterpt/internal/sim"
	"clusterpt/internal/trace"
)

// The churn experiment family replays dynamic workloads — regions
// mapped, unmapped, promoted and demoted while references flow — where
// every static figure replays a frozen snapshot. Each cell pairs one
// churn profile with one workload snapshot and runs all four
// organizations through sim.RunChurnCell, so the merged series is
// identical at any -workers. Every replay
// runs with the epoch-level differential oracle enabled: the rendered
// rows double as a proof that all four organizations tracked the
// plain-map reference model through the full mutation vocabulary.

// churnPairs are the rendered (churn profile, workload) combinations:
// slab churn over gcc's many small sparse spaces, semispace flips over
// ML's GC-stress heap (the paper's own worst case), fork churn over gcc.
var churnPairs = []struct {
	profile  string
	workload string
}{
	{"slab", "gcc"},
	{"gc", "ML"},
	{"fork", "gcc"},
}

func runChurn(ctx context.Context, rc *RunContext) (*Result, error) {
	cells := make([]Cell[[]sim.ChurnSeries], len(churnPairs))
	for i, pair := range churnPairs {
		pair := pair
		cells[i] = Cell[[]sim.ChurnSeries]{
			Key: fmt.Sprintf("churn/%s/%s", pair.profile, pair.workload),
			Run: func(ctx context.Context, seed uint64) ([]sim.ChurnSeries, error) {
				cp, ok := trace.ChurnProfileByName(pair.profile)
				if !ok {
					return nil, fmt.Errorf("churn: no profile %q", pair.profile)
				}
				refs := rc.Refs / 4 // per organization; four replays per cell
				if refs < 1 {
					refs = 1
				}
				rc.CountRefs(uint64(refs) * 4)
				cfg := sim.ChurnConfig{Refs: refs, Seed: seed, Check: true, MMU: rc.MMU()}
				return sim.RunChurnCell(mustProfile(pair.workload), cp, cfg)
			},
		}
	}
	results, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	var ts []*report.Table
	for i, series := range results {
		t := report.NewTable(
			fmt.Sprintf("Dynamic churn: %s ops over %s (per-epoch, oracle-checked)",
				churnPairs[i].profile, churnPairs[i].workload),
			"org", "epoch", "ops", "miss rate", "faults", "table KB",
			"mapped", "sp pages", "psb pages", "frag", "steals")
		for _, s := range series {
			for _, p := range s.Points {
				t.Row(s.Org, p.Epoch, p.Ops, p.MissRate(), p.Faults,
					float64(p.LiveBytes)/1024,
					p.MappedPages, p.SuperPages, p.PartialPages,
					p.FragIndex, p.Steals)
			}
		}
		ts = append(ts, t)
	}
	return &Result{Tables: ts}, nil
}
