// Replicated is the service layer's answer to the Mitosis question: on
// a NUMA machine, one shared page table makes every walk from a distant
// node pay remote-line latency, while N per-node replicas keep walks
// local at the price of broadcasting every write to every replica and
// shooting the remote ones down (numaPTE's replica-coherence cost).
// This file models both sides in the same currency — the paper's §6.1
// cache-line count, extended across nodes by memcost.NUMAModel — and
// delivers the real-concurrency half too: each reader goroutine binds a
// Node to its home replica and translates through a fully local path
// (local stripe locks, local translation cache, optional local
// mmu.Shared hierarchy), so reader throughput scales with replicas
// instead of serializing on one table's lock and cache lines.
//
// Coherence protocol. Writes run the write path's two-phase round
// (writepath.go) across every replica on the stripe covering the
// written page block, then charge the modeled shootdown for the remote
// replicas.
//
// Because conflicting writes hold all copies of the stripe for their
// whole apply, every replica observes conflicting mutations in the same
// order: replicas cannot diverge, and the per-replica sequence stamps
// are equal whenever the table is quiescent. The broadcast asserts this
// — a replica disagreeing with replica 0 on an operation's outcome
// panics rather than serving split-brain translations.
package service

import (
	"fmt"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// ReplicatedConfig parameterizes a Replicated table: the per-replica
// service geometry plus the modeled machine.
type ReplicatedConfig struct {
	// Config is the per-replica stripe/cache geometry.
	Config
	// Replicas is the replication factor: replicas live on nodes
	// 0..Replicas-1. Default 1 (no replication; the degenerate case
	// must stay within noise of a plain Service).
	Replicas int
	// NUMA is the machine model. The zero value takes DefaultNUMA.
	NUMA memcost.NUMAModel
}

func (c *ReplicatedConfig) fill() error {
	if err := c.Config.fill(); err != nil {
		return err
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.NUMA == (memcost.NUMAModel{}) {
		c.NUMA = memcost.DefaultNUMA()
	}
	if err := c.NUMA.Validate(); err != nil {
		return err
	}
	if c.Replicas < 1 || c.Replicas > c.NUMA.Nodes {
		return fmt.Errorf("service: %d replicas on a %d-node machine", c.Replicas, c.NUMA.Nodes)
	}
	return nil
}

// Replicated is N per-node replicas of one logical page table behind
// the service PageTable surface. Reads route to a replica (Node binds a
// goroutine to its home replica); writes broadcast to all replicas and
// are charged the modeled shootdown. Create with NewReplicated.
type Replicated struct {
	cfg ReplicatedConfig
	// The write path's replicas are the node-local copies of the
	// logical table, one front end each, so a reader bound to one shares
	// no mutable cache line with readers bound to others.
	writePath

	// Shootdown tally, atomically maintained so concurrent writers
	// merge without a lock (snapshot via Shootdowns).
	sdBroadcasts, sdIPIs, sdRemotePages, sdLines atomic.Uint64
}

// NewReplicated builds cfg.Replicas replicas, one table per replica
// from build(i). The builder must return independent, empty tables of
// the same organization — replicas of one logical table, not shards.
func NewReplicated(cfg ReplicatedConfig, build func(i int) (pagetable.PageTable, error)) (*Replicated, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	var replicas []*frontEnd
	for i := 0; i < cfg.Replicas; i++ {
		t, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("service: replica %d: %w", i, err)
		}
		if t == nil {
			return nil, fmt.Errorf("service: replica %d: nil table", i)
		}
		fe := newFrontEnd(t, cfg.Config)
		replicas = append(replicas, &fe)
	}
	r := &Replicated{cfg: cfg}
	r.writePath = newWritePath(cfg.LogBlock, replicas, r.chargeShootdown)
	return r, nil
}

// MustNewReplicated is NewReplicated for known-good configurations.
func MustNewReplicated(cfg ReplicatedConfig, build func(i int) (pagetable.PageTable, error)) *Replicated {
	r, err := NewReplicated(cfg, build)
	if err != nil {
		panic(err)
	}
	return r
}

// Replicas returns the replication factor.
func (r *Replicated) Replicas() int { return len(r.replicas) }

// Nodes returns the modeled node count; Node accepts ids 0..Nodes-1.
func (r *Replicated) Nodes() int { return r.cfg.NUMA.Nodes }

// NUMA returns the machine model in use.
func (r *Replicated) NUMA() memcost.NUMAModel { return r.cfg.NUMA }

// ReplicaTable returns replica i's table for size and walk-cost
// inspection. Callers must not mutate it directly while the table is in
// use — direct writes bypass the broadcast and diverge the replicas.
//
//ptlint:allow guardedby write-once pointer escape hatch; the doc contract forbids concurrent mutation
func (r *Replicated) ReplicaTable(i int) pagetable.PageTable { return r.replicas[i].table }

// Seq returns replica i's write-sequence stamp. All stamps are equal
// whenever no write is in flight.
func (r *Replicated) Seq(i int) uint64 { return r.seq[i].Load() }

// AttachMMU gives every replica its own node-local hierarchy model:
// build is called once per replica (nil build, or a nil return, leaves
// that replica bare). Broadcast invalidations shoot down each replica's
// hierarchy individually; Reset flushes them all.
func (r *Replicated) AttachMMU(build func(i int) *mmu.Shared) {
	for i, rep := range r.replicas {
		var h *mmu.Shared
		if build != nil {
			h = build(i)
		}
		rep.AttachMMU(h)
	}
}

// MMU returns replica i's attached hierarchy model, or nil.
func (r *Replicated) MMU(i int) *mmu.Shared { return r.replicas[i].MMU() }

// Name implements PageTable.
func (r *Replicated) Name() string { return r.replicas[0].Name() }

// homeOf returns node id's home replica index: replicas live on nodes
// 0..R-1, and nodes beyond them round-robin onto the existing replicas
// over the interconnect.
func (r *Replicated) homeOf(node int) int { return node % len(r.replicas) }

// localTo reports whether node id's home replica is on its own node.
func (r *Replicated) localTo(node int) bool { return node < len(r.replicas) }

// remoteCount returns how many replicas a write from origin must reach
// over the interconnect: every replica not hosted on origin's node.
func (r *Replicated) remoteCount(origin int) int {
	if r.localTo(origin) {
		return len(r.replicas) - 1
	}
	return len(r.replicas)
}

// chargeShootdown folds one successful write broadcast of pages base
// pages from origin into the shootdown tally.
func (r *Replicated) chargeShootdown(origin, pages int) {
	remotes := r.remoteCount(origin)
	if remotes <= 0 || pages <= 0 {
		return
	}
	r.sdBroadcasts.Add(1)
	r.sdIPIs.Add(uint64(remotes))
	r.sdRemotePages.Add(uint64(remotes) * uint64(pages))
	r.sdLines.Add(uint64(r.cfg.NUMA.BroadcastLines(remotes, pages)))
}

// Shootdowns returns a snapshot of the accumulated replica-coherence
// cost.
func (r *Replicated) Shootdowns() memcost.ShootdownTally {
	return memcost.ShootdownTally{
		Broadcasts:  r.sdBroadcasts.Load(),
		IPIs:        r.sdIPIs.Load(),
		RemotePages: r.sdRemotePages.Load(),
		Lines:       r.sdLines.Load(),
	}
}

// Lookup implements PageTable: the concurrency-safe read path through
// replica 0, for callers that have not bound a Node. The scalable path
// is Node.Lookup.
func (r *Replicated) Lookup(va addr.V) (e pte.Entry, ok bool) {
	ok = r.replicas[0].countedLookup(va, &e)
	return
}

// Map implements PageTable, broadcasting from node 0.
func (r *Replicated) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	return r.mapAt(0, vpn, ppn, attr)
}

// MapRange implements PageTable: the batched region-fault path. Each
// page block is one broadcast round — one stripe acquisition per
// replica and one IPI round per remote replica, however many pages the
// block holds.
func (r *Replicated) MapRange(vpn addr.VPN, ppn addr.PPN, n uint64, attr pte.Attr) (int, error) {
	return r.mapRangeAt(0, vpn, ppn, n, attr)
}

// Unmap implements PageTable, broadcasting from node 0.
func (r *Replicated) Unmap(vpn addr.VPN) error {
	return r.unmapAt(0, vpn)
}

// Protect implements PageTable, block by block; every block is one
// broadcast round charged for the block's pages.
func (r *Replicated) Protect(rg addr.Range, set, clear pte.Attr) error {
	return r.protectAt(0, rg, set, clear)
}

// Demote splits the compact PTE covering vpn's block back into base
// PTEs on every replica, for organizations that support in-place
// demotion with a subblock factor no coarser than the lock block (one
// stripe must cover the whole split). It reports whether a split
// happened; translations are unchanged either way, but the format
// change is a real PTE rewrite, so a successful demotion broadcasts and
// pays shootdown for the block like any other write.
func (r *Replicated) Demote(vpn addr.VPN) bool {
	return r.demoteAt(0, vpn)
}

// Reset rewinds every replica's table (when the organization implements
// pagetable.Resetter), flushes every cache and hierarchy, and zeroes
// all counters, sequence stamps and the shootdown tally. Callers must
// be quiescent.
func (r *Replicated) Reset() {
	r.resetAll()
	r.sdBroadcasts.Store(0)
	r.sdIPIs.Store(0)
	r.sdRemotePages.Store(0)
	r.sdLines.Store(0)
}

// MemStats sums measured arena occupancy across replicas — replication
// multiplies table memory by design, and the meter should show it.
func (r *Replicated) MemStats() pagetable.MemStats {
	var total pagetable.MemStats
	for _, rep := range r.replicas {
		ms := rep.MemStats()
		total.Nodes.LiveBytes += ms.Nodes.LiveBytes
		total.Nodes.SlabBytes += ms.Nodes.SlabBytes
		total.Nodes.LiveObjects += ms.Nodes.LiveObjects
		total.Payload.LiveBytes += ms.Payload.LiveBytes
		total.Payload.SlabBytes += ms.Payload.SlabBytes
		total.Payload.LiveObjects += ms.Payload.LiveObjects
	}
	return total
}

// ReplicaMemStats reports replica i's own arena occupancy.
func (r *Replicated) ReplicaMemStats(i int) pagetable.MemStats { return r.replicas[i].MemStats() }

// Stats implements PageTable: read counters summed over the replica
// lookup paths (Node traffic is accounted separately in NodeCost — the
// whole point of the node-local path is not sharing counter cache
// lines) plus the broadcast write counters.
func (r *Replicated) Stats() Stats {
	s := r.writeStats()
	for _, rep := range r.replicas {
		rep.addLookups(&s)
	}
	return s
}

// Follower returns OnMap/OnUnmap observers for an mm.AddressSpace that
// mirror the space's base-page translations into every replica through
// the normal broadcast (so invalidation, sequence stamps and shootdown
// charges all apply). Wire them with
//
//	sp.OnMap, sp.OnUnmap = rep.Follower()
//
// chaining any previous hooks first if the space already has observers.
// The space's single-writer discipline extends to the replicas' write
// side: replica reads stay concurrent, but only the space may write
// while following.
func (r *Replicated) Follower() (onMap func(addr.VPN, addr.PPN, pte.Attr), onUnmap func(addr.VPN)) {
	onMap = func(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) {
		if err := r.Map(vpn, ppn, attr); err != nil {
			// A reused page can change frames without an unmap event
			// when the space rebuilds a compact PTE in place; remap.
			if err := r.Unmap(vpn); err != nil {
				panic(fmt.Sprintf("service: follower remap unmap %#x: %v", uint64(vpn), err))
			}
			if err := r.Map(vpn, ppn, attr); err != nil {
				panic(fmt.Sprintf("service: follower remap %#x: %v", uint64(vpn), err))
			}
		}
	}
	onUnmap = func(vpn addr.VPN) {
		if err := r.Unmap(vpn); err != nil {
			panic(fmt.Sprintf("service: follower unmap %#x: %v", uint64(vpn), err))
		}
	}
	return onMap, onUnmap
}

// NodeCost is one Node's read-path accounting, denominated like the
// shootdown tally in local cache lines. Plain fields on purpose: a Node
// belongs to one goroutine, and atomics here would put shared-line
// traffic back on the path replication exists to clear.
type NodeCost struct {
	// Hits are lookups served lock-free from the home replica's cache.
	Hits uint64
	// Fills walked the home replica's table; Faults found no mapping.
	Fills, Faults uint64
	// LocalLines are walk lines paid at local cost (node hosts its home
	// replica); RemoteLines are walk lines already scaled by the remote
	// factor (node reaches its home replica over the interconnect).
	LocalLines, RemoteLines uint64
}

// Lines returns the total modeled walk cost in local cache lines.
func (c NodeCost) Lines() uint64 { return c.LocalLines + c.RemoteLines }

// Lookups returns the node's total lookup count.
func (c NodeCost) Lookups() uint64 { return c.Hits + c.Fills + c.Faults }

// Merge folds another node's accounting into this one.
func (c *NodeCost) Merge(o NodeCost) {
	c.Hits += o.Hits
	c.Fills += o.Fills
	c.Faults += o.Faults
	c.LocalLines += o.LocalLines
	c.RemoteLines += o.RemoteLines
}

// Node binds one reader goroutine to its home replica: the scalable
// read path. A Node is NOT safe for concurrent use — create one per
// goroutine (Replicated itself stays safe; only the Node's plain
// counters are unshared). Writes through a Node broadcast like any
// write, charged from the node's position.
type Node struct {
	r     *Replicated
	rep   *frontEnd
	id    int
	local bool
	cost  NodeCost
}

// Node binds node id (0 ≤ id < Nodes()) to its home replica.
func (r *Replicated) Node(id int) *Node {
	if id < 0 || id >= r.cfg.NUMA.Nodes {
		panic(fmt.Sprintf("service: node %d on a %d-node machine", id, r.cfg.NUMA.Nodes))
	}
	return &Node{
		r:     r,
		rep:   r.replicas[r.homeOf(id)],
		id:    id,
		local: r.localTo(id),
	}
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Home returns the node's home replica index.
func (n *Node) Home() int { return n.r.homeOf(n.id) }

// Local reports whether the home replica is hosted on this node.
func (n *Node) Local() bool { return n.local }

// Cost returns the node's read-path accounting.
func (n *Node) Cost() NodeCost { return n.cost }

// ResetCost zeroes the node's accounting.
func (n *Node) ResetCost() { n.cost = NodeCost{} }

// Lookup resolves va through the home replica: cache hit lock-free and
// line-free, miss under the home stripe's read lock with the walk's
// line count charged at local or remote cost. The path touches no
// state shared with nodes bound to other replicas.
func (n *Node) Lookup(va addr.V) (e pte.Entry, ok bool) {
	lines, o := n.rep.lookup(va, &e)
	switch o {
	case hit:
		n.cost.Hits++
		return e, true
	case fill:
		n.cost.Fills++
	default:
		n.cost.Faults++
	}
	walked := uint64(n.r.cfg.NUMA.WalkLines(lines, n.local))
	if n.local {
		n.cost.LocalLines += walked
	} else {
		n.cost.RemoteLines += walked
	}
	return e, o == fill
}

// Map broadcasts one mapping from this node's position.
func (n *Node) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	return n.r.mapAt(n.id, vpn, ppn, attr)
}

// MapRange broadcasts a region fault from this node's position.
func (n *Node) MapRange(vpn addr.VPN, ppn addr.PPN, count uint64, attr pte.Attr) (int, error) {
	return n.r.mapRangeAt(n.id, vpn, ppn, count, attr)
}

// Unmap broadcasts one unmap from this node's position.
func (n *Node) Unmap(vpn addr.VPN) error {
	return n.r.unmapAt(n.id, vpn)
}

// Protect broadcasts a protection change from this node's position.
func (n *Node) Protect(rg addr.Range, set, clear pte.Attr) error {
	return n.r.protectAt(n.id, rg, set, clear)
}

// Demote broadcasts a block demotion from this node's position.
func (n *Node) Demote(vpn addr.VPN) bool {
	return n.r.demoteAt(n.id, vpn)
}

var _ PageTable = (*Replicated)(nil)
