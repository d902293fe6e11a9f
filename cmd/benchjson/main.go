// Command benchjson converts `go test -bench -benchmem` text output on
// stdin into a stable JSON report on stdout, so benchmark snapshots
// (BENCH_*.json) can be checked in and diffed. The input format is
// the benchstat-compatible benchmark line format described in the Go
// benchmark data specification:
//
//	BenchmarkName-8   2788   386169 ns/op   1126961 B/op   1268 allocs/op
//
// Repeated lines for the same benchmark (from -count) are averaged and
// the sample count recorded. Each row records the package it ran in
// (the latest "pkg:" line), so one report can span several packages.
// The goos/goarch/cpu lines are carried into the report header, with
// the GOMAXPROCS values read off the name suffixes, the Go version
// benchjson was built with (the toolchain `go run` shares with the
// `go test` that fed it) and the git commit of the working directory,
// marked "+dirty" when tracked files differ from it; everything else is
// ignored.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// report is the emitted document.
type report struct {
	Version    int               `json:"version"`
	Context    map[string]string `json:"context,omitempty"`
	Count      int               `json:"count"`
	Benchmarks []benchmark       `json:"benchmarks"`
}

// benchmark is one benchmark's averaged samples.
type benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Pkg is the import path of the package the benchmark ran in.
	Pkg string `json:"pkg,omitempty"`
	// Samples is how many result lines were averaged (the -count value).
	Samples int `json:"samples"`
	// Iterations is the mean b.N across samples.
	Iterations float64 `json:"iterations"`
	// Metrics maps unit ("ns/op", "B/op", "allocs/op", and any custom
	// ReportMetric unit) to the mean value across samples.
	Metrics map[string]float64 `json:"metrics"`
}

// contextKeys are the go-test preamble lines worth preserving.
var contextKeys = []string{"goos", "goarch", "cpu"}

type accum struct {
	pkg        string
	samples    int
	iterations float64
	sums       map[string]float64
	counts     map[string]int
}

// parse consumes benchmark text and returns the aggregated report.
func parse(r io.Reader) (*report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ctx := map[string]string{}
	byName := map[string]*accum{}
	var order []string
	pkg := ""

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, k := range contextKeys {
			if v, ok := strings.CutPrefix(line, k+":"); ok {
				ctx[k] = strings.TrimSpace(v)
			}
		}
		if v, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(v)
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is: name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so reports diff cleanly across
		// machines with different core counts, and keep the CPU counts
		// seen in the context so a snapshot still says what it ran on.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				procs := ctx["gomaxprocs"]
				if !slices.Contains(strings.Split(procs, ","), name[i+1:]) {
					ctx["gomaxprocs"] = strings.TrimPrefix(procs+","+name[i+1:], ",")
				}
				name = name[:i]
			}
		}
		key := pkg + "." + name
		a := byName[key]
		if a == nil {
			a = &accum{pkg: pkg, sums: map[string]float64{}, counts: map[string]int{}}
			byName[key] = a
			order = append(order, key)
		}
		a.samples++
		a.iterations += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			a.sums[fields[i+1]] += v
			a.counts[fields[i+1]]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	rep := &report{Version: 2, Context: ctx, Benchmarks: []benchmark{}}
	for _, key := range order {
		a := byName[key]
		b := benchmark{
			Name:       strings.TrimPrefix(key, a.pkg+"."),
			Pkg:        a.pkg,
			Samples:    a.samples,
			Iterations: a.iterations / float64(a.samples),
			Metrics:    map[string]float64{},
		}
		units := make([]string, 0, len(a.sums))
		for u := range a.sums {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			b.Metrics[u] = a.sums[u] / float64(a.counts[u])
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	rep.Count = len(rep.Benchmarks)
	return rep, nil
}

// commit returns the working directory's git commit, with "+dirty"
// when tracked files differ from it, or "" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err == nil && len(bytes.TrimSpace(status)) > 0 {
		rev += "+dirty"
	}
	return rev
}

func run(in io.Reader, out io.Writer) error {
	rep, err := parse(in)
	if err != nil {
		return err
	}
	rep.Context["go"] = runtime.Version()
	if c := commit(); c != "" {
		rep.Context["commit"] = c
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
