package service

import (
	"errors"
	"fmt"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/forward"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/trace"
)

// The replication oracle: a Replicated(N) table must be translation-
// for-translation equal to a single-table Service fed the identical
// operation sequence — for every organization, every replication
// factor, through the interface read path AND through every node-bound
// read path, across Reset and a churn-profile write storm. The Service
// is the reference here; its own agreement with the plain-map model is
// established by oracle_test.go, so a replica bug cannot hide behind a
// matching bug in the single table.

// replicaOrgs are the four organizations under replication.
func replicaOrgs() []struct {
	name  string
	build func() pagetable.PageTable
} {
	return []struct {
		name  string
		build func() pagetable.PageTable
	}{
		{"clustered", func() pagetable.PageTable { return core.MustNew(core.Config{Buckets: 512}) }},
		{"hashed", func() pagetable.PageTable { return hashed.MustNew(hashed.Config{Buckets: 512}) }},
		{"forward", func() pagetable.PageTable { return forward.MustNew(forward.Config{}) }},
		{"linear", func() pagetable.PageTable { return linear.MustNew(linear.Config{}) }},
	}
}

// churnStormMix is the write-storm phase: the stream is almost all
// mutation, the reuse pattern a churn profile inflicts on the service.
var churnStormMix = trace.OpMix{Lookup: 10, Map: 45, Unmap: 40, Protect: 5}

// checkReplicaLookup compares the reference service, the interface read
// path and one node-bound read path on vpn.
func checkReplicaLookup(t *testing.T, single *Service, r *Replicated, n *Node, vpn addr.VPN, ctx string) {
	t.Helper()
	va := addr.VAOf(vpn)
	we, wok := single.Lookup(va)
	ge, gok := r.Lookup(va)
	if gok != wok || (wok && (ge.PPN != we.PPN || ge.Attr != we.Attr)) {
		t.Fatalf("%s: interface lookup %#x = (%#x,%v,%v), single table (%#x,%v,%v)",
			ctx, uint64(vpn), uint64(ge.PPN), ge.Attr, gok, uint64(we.PPN), we.Attr, wok)
	}
	ne, nok := n.Lookup(va)
	if nok != wok || (wok && (ne.PPN != we.PPN || ne.Attr != we.Attr)) {
		t.Fatalf("%s: node %d lookup %#x = (%#x,%v,%v), single table (%#x,%v,%v)",
			ctx, n.ID(), uint64(vpn), uint64(ne.PPN), ne.Attr, nok, uint64(we.PPN), we.Attr, wok)
	}
}

// auditReplicated is the post-quiesce audit: equal sequence stamps,
// per-replica cache coherence, incremental size accounting, and
// replica-for-replica equality of size and measured memory.
func auditReplicated(t *testing.T, r *Replicated, ctx string) {
	t.Helper()
	seq0 := r.Seq(0)
	size0 := r.ReplicaTable(0).Size()
	mem0 := r.ReplicaMemStats(0)
	for i := 0; i < r.Replicas(); i++ {
		if got := r.Seq(i); got != seq0 {
			t.Errorf("%s: replica %d seq %d, replica 0 seq %d", ctx, i, got, seq0)
		}
		table := r.ReplicaTable(i)
		if got := table.Size(); got != size0 {
			t.Errorf("%s: replica %d size %+v, replica 0 %+v", ctx, i, got, size0)
		}
		if got := r.ReplicaMemStats(i); got != mem0 {
			t.Errorf("%s: replica %d memstats %+v, replica 0 %+v", ctx, i, got, mem0)
		}
		if a, ok := table.(interface{ AuditSize() pagetable.Size }); ok {
			if got, want := table.Size(), a.AuditSize(); got != want {
				t.Errorf("%s: replica %d Size %+v disagrees with AuditSize %+v", ctx, i, got, want)
			}
		}
		for _, c := range cachedEntries(r.replicas[i]) {
			e, _, ok := table.Lookup(addr.VAOf(c.vpn))
			if !ok {
				t.Errorf("%s: replica %d slot %d: vpn %#x cached but not mapped", ctx, i, c.slot, uint64(c.vpn))
				continue
			}
			if e.PPN != c.e.PPN || e.Attr != c.e.Attr {
				t.Errorf("%s: replica %d slot %d: vpn %#x cached (%#x,%v), table (%#x,%v)",
					ctx, i, c.slot, uint64(c.vpn), uint64(c.e.PPN), c.e.Attr, uint64(e.PPN), e.Attr)
			}
		}
	}
}

// drive runs one op phase over both tables, comparing read paths and
// mutation outcomes step by step.
func drive(t *testing.T, single *Service, r *Replicated, nodes []*Node, snap trace.ProcessSnapshot, seed uint64, mix trace.OpMix, steps int, phase string) {
	t.Helper()
	stream := trace.NewOpStream(snap, seed, mix)
	route := trace.NewRNG(seed ^ 0x10DE)
	pages := snap.AllPages()
	for step := 0; step < steps; step++ {
		op := stream.Next()
		ctx := fmt.Sprintf("%s seed %#x step %d (%v %#x)", phase, seed, step, op.Kind, uint64(op.VPN))
		node := nodes[route.Intn(len(nodes))]
		switch op.Kind {
		case trace.OpLookup:
			checkReplicaLookup(t, single, r, node, op.VPN, ctx)

		case trace.OpMap:
			errS := single.Map(op.VPN, op.PPN, op.Attr)
			errR := node.Map(op.VPN, op.PPN, op.Attr)
			if (errS == nil) != (errR == nil) || (errS != nil && !errors.Is(errR, pagetable.ErrAlreadyMapped)) {
				t.Fatalf("%s: map errors diverge: single %v, replicated %v", ctx, errS, errR)
			}

		case trace.OpUnmap:
			errS := single.Unmap(op.VPN)
			errR := node.Unmap(op.VPN)
			if (errS == nil) != (errR == nil) || (errS != nil && !errors.Is(errR, pagetable.ErrNotMapped)) {
				t.Fatalf("%s: unmap errors diverge: single %v, replicated %v", ctx, errS, errR)
			}

		case trace.OpProtect:
			rg := op.Range()
			errS := single.Protect(rg, op.Set, op.Clear)
			errR := node.Protect(rg, op.Set, op.Clear)
			if (errS == nil) != (errR == nil) {
				t.Fatalf("%s: protect errors diverge: single %v, replicated %v", ctx, errS, errR)
			}
		}

		// Demotion differential: format-only rewrites must agree and must
		// leave every translation identical (checked by later lookups).
		if step%128 == 127 {
			vpn := pages[route.Intn(len(pages))]
			if ds, dr := single.Demote(vpn), node.Demote(vpn); ds != dr {
				t.Fatalf("%s: demote %#x diverges: single %v, replicated %v", ctx, uint64(vpn), ds, dr)
			}
		}

		// Periodic sweep through a rotating node so every replica's read
		// path gets compared, not just the routed one.
		if step%512 == 511 {
			for i := 0; i < 48; i++ {
				checkReplicaLookup(t, single, r, nodes[(step+i)%len(nodes)],
					pages[route.Intn(len(pages))], fmt.Sprintf("%s seed %#x sweep@%d", phase, seed, step))
			}
		}
	}
	// Full agreement pass over every reachable page, via every node.
	for i, vpn := range pages {
		checkReplicaLookup(t, single, r, nodes[i%len(nodes)], vpn, fmt.Sprintf("%s seed %#x final", phase, seed))
	}
}

func runReplicaOracle(t *testing.T, build func() pagetable.PageTable, seed uint64, replicas, steps int) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	snap := p.Snapshot()[0]
	cfg := Config{Stripes: 32, CacheSlots: 256}
	single := MustWrap(build(), cfg)
	r := MustNewReplicated(ReplicatedConfig{Config: cfg, Replicas: replicas},
		func(int) (pagetable.PageTable, error) { return build(), nil })
	nodes := make([]*Node, r.Nodes())
	for i := range nodes {
		nodes[i] = r.Node(i)
	}

	drive(t, single, r, nodes, snap, seed, trace.WriteHeavyMix, steps, "mixed")
	auditReplicated(t, r, fmt.Sprintf("seed %#x post-mixed", seed))

	// Reset both and confirm the replicas came back empty together.
	single.Reset()
	r.Reset()
	for i := 0; i < r.Replicas(); i++ {
		if got := r.Seq(i); got != 0 {
			t.Fatalf("seed %#x: replica %d seq %d after Reset", seed, i, got)
		}
	}
	pages := snap.AllPages()
	for i := 0; i < 64; i++ {
		checkReplicaLookup(t, single, r, nodes[i%len(nodes)], pages[i%len(pages)],
			fmt.Sprintf("seed %#x post-reset", seed))
	}

	// Churn-profile write storm on the reused tables, then final audit.
	drive(t, single, r, nodes, snap, seed^0xC0442, churnStormMix, steps, "storm")
	auditReplicated(t, r, fmt.Sprintf("seed %#x post-storm", seed))

	if st := r.Stats(); st.Maps == 0 || st.Unmaps == 0 {
		t.Errorf("seed %#x: oracle did not exercise the write broadcast: %+v", seed, st)
	}
	// Nodes 1..7 route writes too, and a replica on another node is
	// remote to them even at replication factor 1 (the NUMA baseline: a
	// remote write pays remote-update lines); the tally must be live at
	// every factor.
	if sd := r.Shootdowns(); sd.Broadcasts == 0 || sd.Lines == 0 {
		t.Errorf("seed %#x: remote writes ran but the shootdown tally is empty: %+v", seed, sd)
	}
}

// TestReplicaOracle runs the differential across 4 organizations × 5
// seeds × N∈{1,2,4,8}.
func TestReplicaOracle(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	for _, org := range replicaOrgs() {
		for _, n := range []int{1, 2, 4, 8} {
			for _, seed := range []uint64{1, 2, 3, 0xC0FFEE, 0xFEEDFACE} {
				org, n, seed := org, n, seed
				t.Run(fmt.Sprintf("%s/r%d/seed=%#x", org.name, n, seed), func(t *testing.T) {
					t.Parallel()
					runReplicaOracle(t, org.build, seed, n, steps)
				})
			}
		}
	}
}
