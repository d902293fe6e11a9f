package mmu

import (
	"sync"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// Shared serializes a Hierarchy for concurrent callers. Like the TLB
// models it composes, a Hierarchy mutates replacement state on every
// Access, so reads need the same serialization as writes. Translate
// bundles the common service pattern — probe, and fill on a miss —
// under one critical section so two racing misses for the same page
// cannot interleave their probe and fill.
type Shared struct {
	mu sync.Mutex
	// h's model state (per-level LRU, MRU filters, walk-cache tags,
	// stats) mutates on reads as well as writes.
	h *Hierarchy //ptlint:guardedby mu
}

// NewShared wraps h behind one mutex.
func NewShared(h *Hierarchy) *Shared {
	return &Shared{h: h}
}

// Access serializes Hierarchy.Access.
func (s *Shared) Access(va addr.V) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Access(va)
}

// Translate drives the model with one resolved translation: it probes
// the hierarchy and, on a full miss, charges the walk through the
// filter and fills every level with e. It returns the hierarchy result
// and the walk cost charged (zero unless the walk ran).
func (s *Shared) Translate(va addr.V, e pte.Entry, walk pagetable.WalkCost) (Result, pagetable.WalkCost) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.h.Access(va)
	if r.Hit {
		return r, pagetable.WalkCost{}
	}
	cost := s.h.FilterWalk(addr.VPNOf(va), walk)
	s.h.Insert(e)
	return r, cost
}

// Insert serializes Hierarchy.Insert.
func (s *Shared) Insert(e pte.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h.Insert(e)
}

// Invalidate serializes the per-level single-page shootdown.
func (s *Shared) Invalidate(vpn addr.VPN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h.Invalidate(vpn)
}

// InvalidateBatch shoots down many pages under one lock acquisition.
// The replicated service's write broadcast invalidates a whole page
// block on every replica's local hierarchy; paying one mutex round trip
// per page would put the lock, not the model, on the profile.
func (s *Shared) InvalidateBatch(vpns []addr.VPN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, vpn := range vpns {
		s.h.Invalidate(vpn)
	}
}

// Shootdown serializes the whole-hierarchy flush.
func (s *Shared) Shootdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h.Flush()
}

// Stats returns a snapshot of the composed counters.
func (s *Shared) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Stats()
}

// LevelStats returns a snapshot of each level's counters, top first.
func (s *Shared) LevelStats() []Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.LevelStats()
}
