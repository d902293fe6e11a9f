package main

import (
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: clusterpt/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBuildFresh/clustered-8         	    2788	    386169 ns/op	 1126961 B/op	    1268 allocs/op
BenchmarkBuildFresh/clustered-8         	    2930	    401716 ns/op	 1126961 B/op	    1268 allocs/op
BenchmarkBuildPooled/clustered-8        	    3921	    275039 ns/op	  135288 B/op	    1236 allocs/op
some unrelated line
PASS
ok  	clusterpt/internal/sim	2.432s
`

func TestParseAggregates(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != 2 || len(rep.Benchmarks) != 2 {
		t.Fatalf("count = %d, benchmarks = %d, want 2", rep.Count, len(rep.Benchmarks))
	}
	fresh := rep.Benchmarks[0]
	if fresh.Name != "BenchmarkBuildFresh/clustered" {
		t.Errorf("name %q: GOMAXPROCS suffix not stripped", fresh.Name)
	}
	if fresh.Samples != 2 {
		t.Errorf("samples = %d, want 2", fresh.Samples)
	}
	if got, want := fresh.Metrics["ns/op"], (386169.0+401716.0)/2; got != want {
		t.Errorf("ns/op = %f, want %f", got, want)
	}
	if got := fresh.Metrics["allocs/op"]; got != 1268 {
		t.Errorf("allocs/op = %f, want 1268", got)
	}
	pooled := rep.Benchmarks[1]
	if pooled.Samples != 1 || pooled.Metrics["B/op"] != 135288 {
		t.Errorf("pooled = %+v", pooled)
	}
	if rep.Context["goos"] != "linux" || rep.Context["cpu"] == "" || rep.Context["gomaxprocs"] != "8" {
		t.Errorf("context = %v", rep.Context)
	}
	if fresh.Pkg != "clusterpt/internal/sim" || pooled.Pkg != "clusterpt/internal/sim" {
		t.Errorf("pkg = %q, %q, want clusterpt/internal/sim", fresh.Pkg, pooled.Pkg)
	}
	if _, ok := rep.Context["pkg"]; ok {
		t.Errorf("context carries a report-wide pkg: %v", rep.Context)
	}
}

// twoPackages is the output of one `go test -bench` over two packages,
// each with a benchmark of the same name.
const twoPackages = `goos: linux
goarch: amd64
pkg: clusterpt/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSpan/x-2   	 100	 10 ns/op
PASS
ok  	clusterpt/internal/sim	1.0s
goos: linux
goarch: amd64
pkg: clusterpt/internal/memcost
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSpan/x-2   	 100	 30 ns/op
BenchmarkSpan/y-2   	 100	 40 ns/op
PASS
ok  	clusterpt/internal/memcost	1.0s
`

// TestParsePackagePerRow pins that each row names the package it ran
// in, and that same-named benchmarks of different packages stay apart.
func TestParsePackagePerRow(t *testing.T) {
	rep, err := parse(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		pkg, name string
		ns        float64
	}{
		{"clusterpt/internal/sim", "BenchmarkSpan/x", 10},
		{"clusterpt/internal/memcost", "BenchmarkSpan/x", 30},
		{"clusterpt/internal/memcost", "BenchmarkSpan/y", 40},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for i, w := range want {
		b := rep.Benchmarks[i]
		if b.Pkg != w.pkg || b.Name != w.name || b.Samples != 1 || b.Metrics["ns/op"] != w.ns {
			t.Errorf("row %d = %+v, want %s %s %v ns/op", i, b, w.pkg, w.name, w.ns)
		}
	}
}

func TestParseOrderStable(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks[0].Name >= rep.Benchmarks[1].Name {
		// First-seen order happens to be sorted here; the real invariant
		// is input order, which this asserts indirectly.
		t.Errorf("order: %q before %q", rep.Benchmarks[0].Name, rep.Benchmarks[1].Name)
	}
}

func TestRunEmitsJSON(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"version": 2`, `"BenchmarkBuildPooled/clustered"`, `"allocs/op": 1236`,
		`"pkg": "clusterpt/internal/sim"`, `"go": "` + runtime.Version() + `"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRecordsCommit pins that the report names the git commit of
// the working directory when there is one.
func TestRunRecordsCommit(t *testing.T) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		t.Skip("not in a git work tree")
	}
	var out strings.Builder
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if want := `"commit": "` + strings.TrimSpace(string(head)); !strings.Contains(out.String(), want) {
		t.Errorf("output missing %s:\n%s", want, out.String())
	}
}

func TestParseEmptyInput(t *testing.T) {
	rep, err := parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != 0 || rep.Benchmarks == nil {
		t.Errorf("empty input: %+v", rep)
	}
}
