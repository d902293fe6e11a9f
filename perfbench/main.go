// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed length and prints every end-to-end metric by
// name and unit, then, as its last line, one JSON result object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Workloads (one process, one worker or client per CPU):
//
//   - replay: Figures 11a-d through engine.Engine.Run (flat MMU, all
//     ten traced profiles) — what a reproducer waits on.
//   - replay-mmu: the hierarchy experiment (Figure 11a under flat, l2
//     and l2+pwc) — the only workload that drives swtlb and walkcache.
//   - serve-read: closed-loop service.Service.Lookup over a clustered
//     table holding the ML snapshot (twice the cache size).
//   - serve-mixed: closed-loop trace.DefaultOpMix traffic through
//     node-bound handles of a two-replica service.Replicated.
//
// With --trace 1 the run repeats its timed phase with per-layer timers
// and reports the per-layer metrics instead; the replay workloads
// re-drive every cell from redrive.go and cross-check it against
// sim.RunFigure11. Outputs are checked on every run: replay passes
// against the recorded digests of their rendered tables (digests.go),
// serve calls against each client's model.
//
// Run it from the repository root through run.py, which builds this
// package from source:
//
//	python3 perfbench/run.py --workload replay --seed 1 --seconds 15 --trace 0
//
// --workload all runs the four workloads in turn, each ending with its
// own result line. The benchmark's tests run from this directory with
// go test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"clusterpt/internal/pagetable"
)

// runConfig is one run's parameters. The sizes are fixed by the
// benchmark (defaultConfig); tests shrink them.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
	setups   int

	// refs is the replay reference budget per workload trace.
	refs int
	// batch is the calls each serve client makes per round; ring is
	// the length of each client's pre-generated input, replayed
	// cyclically.
	batch, ring int
	// digests are the recorded replay digests (digestKey -> digest).
	digests map[string]string
	// wrapTable, when set, wraps every serve table (fault injection).
	wrapTable func(pagetable.PageTable) pagetable.PageTable

	spans *spanLog
}

// runResult is what a run measured.
type runResult struct {
	attempted, failed uint64
	crossCheckFailed  bool
	// e2e are the end-to-end metrics (untraced), layers the per-layer
	// metrics (traced), extra the workload-specific figures that are
	// printed and recorded but are not end-to-end metrics of every
	// workload.
	e2e, layers, extra metricSet
	digests            map[string]string
}

var workloads = []string{"replay", "replay-mmu", "serve-read", "serve-mixed"}

func defaultConfig(workload string) *runConfig {
	cfg := &runConfig{
		workload: workload,
		workers:  runtime.NumCPU(),
		setups:   5,
		refs:     25_000,
		digests:  recordedDigests,
		spans:    newSpanLog(),
	}
	switch workload {
	case "serve-read":
		cfg.batch, cfg.ring = 250_000, 1<<20
	case "serve-mixed":
		cfg.batch, cfg.ring = 100_000, 1<<18
	}
	return cfg
}

// endToEnd and perLayer are the metric names BENCHMARK.json lists; a
// result carries exactly these.
var endToEnd = []string{"setup_s", "wall_s", "ops_per_s", "alloc_bytes_per_op", "allocs_per_op", "heap_peak_mb"}

var perLayer = func() []string {
	names := []string{
		"engine.cell_p50_ms", "engine.cell_max_ms", "engine.idle_frac",
		"sim.build_ms", "sim.self_ns_per_ref", "trace.fill_ns_per_ref",
		"tlb.access_ns", "tlb.miss_ratio", "tlb.insert_ns", "tlb.insert_block_ns", "tlb.insert_block_allocs",
	}
	for _, org := range orgNames {
		names = append(names, org+".lookup_ns", org+".lookup_block_ns", org+".lookup_block_allocs", org+".lines_per_miss")
	}
	return append(names,
		"swtlb.access_ns", "swtlb.hit_ratio", "swtlb.insert_ns", "swtlb.insert_allocs",
		"walkcache.probe_ns", "walkcache.hit_ratio", "report.render_ms",
		"service.hit_ratio", "service.lookup_ns", "service.table_lookup_ns", "service.self_ns_per_lookup",
		"service.map_ns", "service.unmap_ns", "service.protect_ns", "service.table_write_ns",
		"service.broadcast_self_ns_per_write", "service.shootdown_lines_per_write",
		"bench.trace_overhead")
}()

// layerUnits gives each per-layer metric its unit when the workload
// does not exercise the layer and the metric reads 0.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"), strings.HasSuffix(name, "_per_ref"), strings.HasSuffix(name, "_per_lookup"),
		strings.HasSuffix(name, "_per_write") && !strings.Contains(name, "lines"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_allocs"):
		return "count"
	case strings.Contains(name, "lines"):
		return "lines"
	default:
		return "ratio"
	}
}

func run(ctx context.Context, cfg *runConfig) (*runResult, error) {
	res := &runResult{e2e: metricSet{}, layers: metricSet{}, extra: metricSet{}}
	var err error
	switch cfg.workload {
	case "replay", "replay-mmu":
		err = runReplay(ctx, cfg, res)
	case "serve-read", "serve-mixed":
		err = runServe(cfg, res)
	default:
		err = fmt.Errorf("unknown workload %q (valid: %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if res.attempted > 0 {
		res.extra.set("failed_frac", float64(res.failed)/float64(res.attempted), "ratio")
	}
	if cfg.trace {
		for _, name := range perLayer {
			if _, ok := res.layers[name]; !ok {
				res.layers.set(name, 0, layerUnit(name))
			}
		}
	}
	return res, nil
}

// environment records what a result was measured on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPU        string `json:"cpu_model"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func printMetrics(title string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-8s %-38s %16.6g %s\n", title, n, m[n].Value, m[n].Unit)
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all (each in turn)")
	seed := flag.Int64("seed", 1, "workload seed (replay workloads cycle through 32 recorded inputs; 9001 is held out)")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for the run's result and span files")
	commit := flag.String("commit", "unknown", "source revision the binary was built from")
	printDigests := flag.Bool("print-digests", false, "print the replay digests for the given seed instead of checking them")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: *commit, CPU: cpuModel(),
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, w := range names {
		cfg := defaultConfig(w)
		cfg.seed = *seed
		cfg.seconds = time.Duration(*seconds) * time.Second
		cfg.trace = *traceFlag == 1
		var err error
		if *printDigests {
			err = printRecordedDigests(cfg)
		} else {
			err = runOne(cfg, env, *out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// printRecordedDigests runs one pass and prints its digests as
// recordedDigests entries.
func printRecordedDigests(cfg *runConfig) error {
	cfg.seconds, cfg.setups = 0, 1
	res, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.digests))
	for n := range res.digests {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("\t%q: %q,\n", digestKey(n, cfg.refs, engineSeed(cfg.seed)), res.digests[n])
	}
	return nil
}

// runOne runs one workload, prints its metrics and then its result line.
func runOne(cfg *runConfig, env environment, out string) error {
	res, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	fmt.Printf("env      nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.CPU)
	fmt.Printf("run      workload=%s seed=%d seconds=%g trace=%d workers=%d\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), trace, cfg.workers)
	printMetrics("e2e", res.e2e)
	printMetrics("workload", res.extra)
	reported, want := res.e2e, endToEnd
	if cfg.trace {
		printMetrics("layer", res.layers)
		reported, want = res.layers, perLayer
	}
	line := resultLine{
		Correct:   res.failed == 0 && !res.crossCheckFailed,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metricSet{},
	}
	for _, n := range want {
		line.Metrics[n] = reported[n]
	}
	if err := writeRecord(out, cfg, env, res); err != nil {
		return fmt.Errorf("writing result files: %w", err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// writeRecord writes the full result (environment, every metric) and
// the run's spans under dir.
func writeRecord(dir string, cfg *runConfig, env environment, res *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace))
	record := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": trace,
		"env": env, "attempted": res.attempted, "failed": res.failed, "cross_check_failed": res.crossCheckFailed,
		"end_to_end": res.e2e, "workload_metrics": res.extra, "per_layer": res.layers,
	}
	if err := writeJSON(base+".json", record); err != nil {
		return err
	}
	return writeJSON(base+".spans.json", cfg.spans.spans)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
