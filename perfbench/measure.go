package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one reported value with its unit, in the shape the result
// line uses.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds reported metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// memDelta captures the runtime's cumulative heap allocation counters,
// so a phase's allocation volume is the difference of two snapshots.
type memDelta struct{ bytes, objects uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

func (m memDelta) since(base memDelta) memDelta {
	return memDelta{bytes: m.bytes - base.bytes, objects: m.objects - base.objects}
}

// heapPeak records the live heap after every garbage collection: the
// bytes the collection found reachable, which is the heap the run
// actually needs (the bytes allocated between collections add garbage
// whose amount depends on where the collector happened to be). A
// finalizer that re-arms itself reads it once per cycle, so no cycle is
// missed between samples.
type heapPeak struct {
	mu      sync.Mutex
	live    []float64
	stopped bool
}

// gcSentinel is the object whose finalizer runs after each collection.
// It holds a pointer so the runtime never packs it into a shared tiny
// block, which would delay its finalizer.
type gcSentinel struct{ _ *int }

// startHeapPeak starts recording; the live heap as of the latest
// collection is the first sample, so a phase too short to collect
// still reports what it holds.
func startHeapPeak() *heapPeak {
	h := &heapPeak{live: []float64{liveHeap()}}
	h.arm()
	return h
}

func liveHeap() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		v := liveHeap()
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.stopped {
			h.live = append(h.live, v)
			h.arm()
		}
	})
}

// stop ends the recording. It returns the peak live heap in MiB, taken
// as the highest percentile of the samples with at least ten samples
// above it (the 99th at most), which one unlucky cycle cannot move the
// way it moves the maximum, and the number of samples.
func (h *heapPeak) stop() (mib float64, samples int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	q := 0.99
	if n := float64(len(h.live)); n > 0 && 1-10/n < q {
		q = math.Max(0, 1-10/n)
	}
	return quantile(h.live, q) / (1 << 20), len(h.live)
}

// sampleEvery is the 1-in-N rate at which per-reference calls are timed
// one at a time. Most of them take well under 100 ns, close to the cost
// of reading the clock, so timing every call would mostly measure the
// clock; counts stay exact.
const sampleEvery = 16

// callTimer estimates a call site's mean latency from a 1-in-sampleEvery
// sample while counting every call. Not safe for concurrent use: each
// worker owns its timers and they are merged afterwards.
type callTimer struct {
	calls, sampled uint64
	ns             time.Duration
}

// do runs f, timing it when it falls in the sample.
func (c *callTimer) do(f func()) {
	c.calls++
	if c.calls%sampleEvery != 1 {
		f()
		return
	}
	c.ns += timeCall(f)
	c.sampled++
}

// timeCall times one call of f. The clock is read twice before the
// call: the gap between those reads is what one reading costs in the
// caller's current cache and pipeline state, and it is subtracted. A
// constant calibrated in a tight loop undercounts that cost, enough for
// the timed calls of a cell to add up to more than the cell's time.
func timeCall(f func()) time.Duration {
	t0 := time.Now()
	t1 := time.Now()
	f()
	return time.Since(t1) - t1.Sub(t0)
}

func (c *callTimer) add(o callTimer) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.ns += o.ns
}

// meanNs is the estimated mean latency per call, 0 without samples.
func (c callTimer) meanNs() float64 {
	if c.sampled == 0 {
		return 0
	}
	v := float64(c.ns) / float64(c.sampled)
	if v < 0 {
		return 0
	}
	return v
}

// totalNs estimates the time spent in all calls.
func (c callTimer) totalNs() float64 { return c.meanNs() * float64(c.calls) }

// span is one timed interval of the run, relative to the run's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Owner  string `json:"owner,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out. Spans
// mark phase, pass, cell and client boundaries, never single calls, so
// the log stays small. Safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span and returns its id (ids start at 1; parent 0 is
// the root).
func (l *spanLog) open(name, owner string, parent int) int {
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Owner: owner, Start: now, End: -1})
	return len(l.spans)
}

func (l *spanLog) close(id int) {
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}
