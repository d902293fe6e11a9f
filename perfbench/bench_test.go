package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// tinyConfig shrinks a workload to one short pass or round.
func tinyConfig(workload string, traced bool) *runConfig {
	cfg := defaultConfig(workload)
	cfg.seed = 7
	cfg.trace = traced
	cfg.seconds = 1
	cfg.setups = 1
	cfg.refs = 2000
	if cfg.batch > 0 {
		cfg.batch, cfg.ring = 2000, 4096
	}
	return cfg
}

func mustRun(t *testing.T, cfg *runConfig) *runResult {
	t.Helper()
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// tinyDigests records the digests a tiny replay run renders, standing
// in for the recorded table (which holds full-size runs only).
func tinyDigests(t *testing.T, workload string) map[string]string {
	t.Helper()
	cfg := tinyConfig(workload, false)
	cfg.digests = map[string]string{}
	res := mustRun(t, cfg)
	out := map[string]string{}
	for exp, d := range res.digests {
		out[digestKey(exp, cfg.refs, engineSeed(cfg.seed))] = d
	}
	return out
}

func failedFrac(res *runResult) float64 { return res.extra["failed_frac"].Value }

type specMetric struct{ Name, Unit string }

// benchmarkSpec reads the metric lists of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (e2e, layers []specMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func TestEveryMetricEmitted(t *testing.T) {
	specE2E, specLayers := benchmarkSpec(t)
	for _, c := range []struct {
		spec  []specMetric
		names []string
	}{{specE2E, endToEnd}, {specLayers, perLayer}} {
		if len(c.spec) != len(c.names) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.spec), len(c.names))
		}
		for i, m := range c.spec {
			if m.Name != c.names[i] {
				t.Errorf("metric %d: BENCHMARK.json %q, program %q", i, m.Name, c.names[i])
			}
		}
	}
	for _, w := range workloads {
		var digests map[string]string
		if _, ok := replayExperiments[w]; ok {
			digests = tinyDigests(t, w)
		}
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(w, traced)
			if digests != nil {
				cfg.digests = digests
			}
			res := mustRun(t, cfg)
			spec, got := specE2E, res.e2e
			if traced {
				spec, got = specLayers, res.layers
			}
			for _, m := range spec {
				if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, traced, m.Name, v, ok, m.Unit)
				}
			}
			for _, n := range endToEnd {
				if got := res.e2e[n].Value; got <= 0 {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v, want > 0", w, traced, n, got)
				}
			}
			if res.attempted == 0 || res.failed != 0 || res.crossCheckFailed || failedFrac(res) != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d cross-check failed %v",
					w, traced, res.attempted, res.failed, res.crossCheckFailed)
			}
		}
	}
}

func TestCorruptDigestFails(t *testing.T) {
	digests := tinyDigests(t, "replay")
	cfg := tinyConfig("replay", false)
	cfg.digests = digests
	for k := range digests {
		digests[k] = "0000000000000000"
		break
	}
	res := mustRun(t, cfg)
	if res.failed != 1 || failedFrac(res) <= 0 {
		t.Fatalf("corrupted digest: failed %d of %d, failed_frac %v", res.failed, res.attempted, failedFrac(res))
	}
}

// wrongTable returns a wrong frame for every lookup of a page whose
// number is a multiple of 7.
type wrongTable struct{ pagetable.PageTable }

func (w wrongTable) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	e, c, ok := w.PageTable.Lookup(va)
	if ok && addr.VPNOf(va)%7 == 0 {
		e.PPN++
	}
	return e, c, ok
}

func TestWrongTranslationFails(t *testing.T) {
	for _, w := range []string{"serve-read", "serve-mixed"} {
		cfg := tinyConfig(w, false)
		cfg.wrapTable = func(t pagetable.PageTable) pagetable.PageTable { return wrongTable{t} }
		res := mustRun(t, cfg)
		if res.failed == 0 || failedFrac(res) <= 0 {
			t.Errorf("%s: injected wrong translations, failed %d of %d", w, res.failed, res.attempted)
		}
	}
}

func TestEngineSeed(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{{0, 1}, {1, 2}, {31, 32}, {32, 1}, {-1, 32}, {heldOutSeed, heldOutSeed}} {
		if got := engineSeed(c.seed); got != c.want {
			t.Errorf("engineSeed(%d) = %d, want %d", c.seed, got, c.want)
		}
	}
}
