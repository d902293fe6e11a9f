package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"clusterpt/internal/engine"
	"clusterpt/internal/trace"
)

// replayExperiments are the registered experiments each replay workload
// runs, in order.
var replayExperiments = map[string][]string{
	"replay":     {"fig11a", "fig11b", "fig11c", "fig11d"},
	"replay-mmu": {"hierarchy"},
}

// inputSeeds is how many distinct engine seeds the replay workloads
// cycle through. Each one's rendered tables have a recorded digest, so
// every pass can be checked byte for byte.
const inputSeeds = 32

// heldOutSeed is reserved for confirming a claim on an input that was
// not used while the claim was developed: it maps to itself, outside
// the cycled range, and has its own recorded digests.
const heldOutSeed = 9001

// engineSeed maps the benchmark's --seed to the engine's base seed.
func engineSeed(seed int64) uint64 {
	if seed == heldOutSeed {
		return heldOutSeed
	}
	m := seed % inputSeeds
	if m < 0 {
		m += inputSeeds
	}
	return uint64(m) + 1
}

// warmRefs is the reference budget of the set-up's warm-up pass: every
// cell builds its tables and replays a little, so the timed passes do
// not pay first-use costs.
const warmRefs = 2000

// digestKey names one experiment's recorded digest.
func digestKey(exp string, refs int, seed uint64) string {
	return fmt.Sprintf("%s/%d/%d", exp, refs, seed)
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// replayPass is one run of a replay workload's experiments.
type replayPass struct {
	wall, engineWall, render time.Duration
	refs                     uint64
	digests                  map[string]string // experiment -> digest
}

// cellTimes collects engine cell wall times through engine.Options.Hooks.
type cellTimes struct {
	mu    sync.Mutex
	walls []float64 // ms
	open  map[string]int
	spans *spanLog
	pass  int
}

func (c *cellTimes) hooks() engine.Hooks {
	return engine.Hooks{
		CellStart: func(exp, cell string) {
			id := c.spans.open("engine.cell", cell, c.passSpan())
			c.mu.Lock()
			c.open[cell] = id
			c.mu.Unlock()
		},
		CellDone: func(exp, cell string, wall time.Duration) {
			c.mu.Lock()
			c.walls = append(c.walls, float64(wall)/1e6)
			id := c.open[cell]
			delete(c.open, cell)
			c.mu.Unlock()
			c.spans.close(id)
		},
	}
}

func (c *cellTimes) passSpan() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pass
}

func (c *cellTimes) setPass(id int) {
	c.mu.Lock()
	c.pass = id
	c.mu.Unlock()
}

// runReplayPass runs the experiments once and renders their tables the
// way the ptrepro command does, digesting each experiment's bytes.
func runReplayPass(ctx context.Context, eng *engine.Engine, exps []string) (replayPass, error) {
	p := replayPass{digests: map[string]string{}}
	start := time.Now()
	for _, name := range exps {
		t0 := time.Now()
		res, err := eng.Run(ctx, name)
		p.engineWall += time.Since(t0)
		if err != nil {
			return p, err
		}
		t1 := time.Now()
		var buf bytes.Buffer
		for _, r := range res {
			for _, t := range r.Tables {
				t.Render(&buf)
			}
			for _, n := range r.Notes {
				fmt.Fprintln(&buf, n)
			}
			p.refs += r.Stats.Refs
		}
		p.render += time.Since(t1)
		p.digests[name] = digestOf(buf.Bytes())
	}
	p.wall = time.Since(start)
	return p, nil
}

// runReplay measures a replay workload: repeated passes of its
// experiments through engine.Engine.Run for the run's length, each pass
// checked against the recorded digests. A traced run then re-drives
// every cell with per-layer timers (redrive.go).
func runReplay(ctx context.Context, cfg *runConfig, res *runResult) error {
	exps, ok := replayExperiments[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown replay workload %q", cfg.workload)
	}
	seed := engineSeed(cfg.seed)

	// Set-up: derive the inputs (every traced profile's process
	// snapshots) and warm the engine with one small pass, so lazy
	// initialization and heap growth are not charged to the first timed
	// pass. Repeated, and reported as the median.
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		// Each set-up starts from a collected heap, so it is not charged
		// for collecting the previous one's garbage.
		runtime.GC()
		id := cfg.spans.open("setup", "", 0)
		t0 := time.Now()
		for _, p := range trace.Profiles() {
			if !p.SnapshotOnly {
				p.Snapshot()
			}
		}
		warm := engine.New(engine.Options{Refs: warmRefs, Seed: seed, Workers: cfg.workers, Log: io.Discard})
		for _, name := range exps {
			if _, err := warm.Run(ctx, name); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.spans.close(id)
	}
	res.e2e.set("setup_s", median(setups), "s")

	cells := &cellTimes{open: map[string]int{}, spans: cfg.spans}
	eng := engine.New(engine.Options{
		Refs: cfg.refs, Seed: seed, Workers: cfg.workers, Log: io.Discard, Hooks: cells.hooks(),
	})

	var passes []replayPass
	runtime.GC()
	heap := startHeapPeak()
	mem0 := readMem()
	timed := cfg.spans.open("timed", "", 0)
	start := time.Now()
	for {
		pid := cfg.spans.open("pass", "", timed)
		cells.setPass(pid)
		p, err := runReplayPass(ctx, eng, exps)
		cfg.spans.close(pid)
		if err != nil {
			heap.stop()
			return err
		}
		passes = append(passes, p)
		if el := time.Since(start); el+p.wall/2 >= cfg.seconds {
			break
		}
	}
	cfg.spans.close(timed)
	mem := readMem().since(mem0)
	peak, gcs := heap.stop()

	var walls, rates, renders, engineWalls []float64
	var refs uint64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.refs)/p.wall.Seconds())
		renders = append(renders, float64(p.render)/1e6)
		engineWalls = append(engineWalls, p.engineWall.Seconds())
		refs += p.refs
		for _, name := range exps {
			res.attempted++
			want, ok := cfg.digests[digestKey(name, cfg.refs, seed)]
			if got := p.digests[name]; !ok || got != want {
				res.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d refs %d: rendered digest %s, recorded %q\n",
					name, seed, cfg.refs, got, want)
			}
		}
	}
	res.digests = passes[0].digests
	res.e2e.set("wall_s", median(walls), "s")
	res.e2e.set("ops_per_s", median(rates), "1/s")
	res.e2e.set("alloc_bytes_per_op", float64(mem.bytes)/float64(refs), "B")
	res.e2e.set("allocs_per_op", float64(mem.objects)/float64(refs), "count")
	res.e2e.set("heap_peak_mb", peak, "MiB")
	res.extra.set("heap_samples", float64(gcs), "count")
	res.extra.set("passes", float64(len(passes)), "count")

	if !cfg.trace {
		return nil
	}
	var cellSum float64
	for _, w := range cells.walls {
		cellSum += w / 1e3
	}
	var engineSum float64
	for _, w := range engineWalls {
		engineSum += w
	}
	res.layers.set("engine.cell_p50_ms", median(cells.walls), "ms")
	res.layers.set("engine.cell_max_ms", maxOf(cells.walls), "ms")
	res.layers.set("engine.idle_frac", 1-cellSum/(float64(cfg.workers)*engineSum), "ratio")
	res.layers.set("report.render_ms", median(renders), "ms")
	return redriveWorkload(ctx, cfg, seed, median(engineWalls), res)
}
