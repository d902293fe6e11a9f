// Package service is the concurrent page-table service layer: it wraps
// any pagetable.PageTable organization behind one thread-safe surface
// tuned for mixed traffic from many goroutines.
//
// The design splits the two paths the way an OS splits the TLB miss
// handler from the mapping system calls (§3.1 of the paper):
//
//   - Lookup takes a lock-free fast path through a fixed-size translation
//     cache of seqlock slots — a software TLB in front of the wrapped
//     table. A hit costs one hash, two sequence loads around a key
//     compare and three payload loads on one cache line, and one counter
//     add on its page block's stripe; no lock, no allocation, and no
//     write to a line another page block's lookups write.
//   - Map, Unmap, MapRange and Protect serialize per page block on a
//     striped readers-writer lock. Writers mutate the wrapped table and
//     invalidate the affected cache slots while holding the stripe
//     exclusively; lookup slow paths fill the cache under the stripe's
//     read lock. Because a translation's fill and its invalidation hash
//     to the same stripe, a fill can never resurrect an entry a
//     concurrent writer just killed; a racing fill of another VPN that
//     shares the slot can only displace a translation — the coherence
//     argument DESIGN.md §6 spells out.
//
// The cache guarantees translation coherence: a cached entry always
// returns the PPN and attribute bits the wrapped table would return for
// that VPN. It does not guarantee format coherence — after a superpage is
// demoted page by page, a cached entry may still carry the old Kind/Size
// until evicted — matching real TLBs, which shoot down translations, not
// PTE formats.
package service

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// Defaults chosen for serving-sized tables: 128 stripes keeps writer
// collision probability low at dozens of writer goroutines; 4096 cache
// slots matches the software-TLB sizing of §7.
const (
	DefaultStripes    = 128
	DefaultCacheSlots = 4096
	// DefaultLogBlock is the write-lock granularity in pages (log2): 16
	// pages, the paper's base-case subblock factor, so one stripe
	// acquisition covers one clustered page block.
	DefaultLogBlock = 4
)

// Config parameterizes a Service.
type Config struct {
	// Stripes is the write-lock stripe count, a power of two.
	Stripes int
	// CacheSlots is the lookup-cache size, a power of two.
	CacheSlots int
	// LogBlock is log2 of the pages covered by one stripe acquisition.
	LogBlock uint
}

func (c *Config) fill() error {
	if c.Stripes == 0 {
		c.Stripes = DefaultStripes
	}
	if c.CacheSlots == 0 {
		c.CacheSlots = DefaultCacheSlots
	}
	if c.LogBlock == 0 {
		c.LogBlock = DefaultLogBlock
	}
	if !addr.IsPow2(uint64(c.Stripes)) {
		return fmt.Errorf("service: stripe count %d not a power of two", c.Stripes)
	}
	if !addr.IsPow2(uint64(c.CacheSlots)) {
		return fmt.Errorf("service: cache slot count %d not a power of two", c.CacheSlots)
	}
	if c.LogBlock > 12 {
		return fmt.Errorf("service: lock block of 1<<%d pages is unreasonably coarse", c.LogBlock)
	}
	return nil
}

// PageTable is the service surface: the base-page operation set of
// pagetable.PageTable re-shaped for concurrent callers — no walk costs
// (those are simulation instrumentation), plus the batched region map.
type PageTable interface {
	// Name identifies the wrapped organization.
	Name() string
	// Lookup resolves va. ok is false on a page fault.
	Lookup(va addr.V) (e pte.Entry, ok bool)
	// Map installs one base-page translation.
	Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error
	// MapRange installs n consecutive base pages vpn+i → ppn+i with one
	// lock acquisition per page block (a region-fault batch). It returns
	// the number of pages mapped; on error the earlier pages stay mapped.
	MapRange(vpn addr.VPN, ppn addr.PPN, n uint64, attr pte.Attr) (int, error)
	// Unmap removes the translation covering vpn.
	Unmap(vpn addr.VPN) error
	// Protect applies attribute bits to every mapping in r.
	Protect(r addr.Range, set, clear pte.Attr) error
	// Stats reports service-level operation counts.
	Stats() Stats
}

// Stats counts service operations. Hits+Fills+Faults is the total lookup
// count; Hits/(Hits+Fills+Faults) is the fast-path rate.
type Stats struct {
	// Hits are lookups served lock-free from the translation cache.
	Hits uint64
	// Fills are lookups that walked the wrapped table and cached the
	// result.
	Fills uint64
	// Faults are lookups with no covering mapping.
	Faults uint64
	// Maps and Unmaps count successful mutations; MapConflicts and
	// UnmapMisses count the ErrAlreadyMapped / ErrNotMapped outcomes that
	// are expected under racing writers.
	Maps, MapConflicts  uint64
	Unmaps, UnmapMisses uint64
	// Protects counts Protect calls.
	Protects uint64
	// Demotes counts successful block demotions (format-only PTE
	// rewrites; translations unchanged).
	Demotes uint64
}

// Lookups returns the total lookup count.
func (s Stats) Lookups() uint64 { return s.Hits + s.Fills + s.Faults }

// HitRate returns the fast-path fraction of lookups.
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Service wraps one page-table organization: one lookup front end and
// the write path over it. Create with Wrap.
type Service struct {
	frontEnd
	// Keeps the write path's counters off the line holding the front
	// end's mmuh, which every lookup reads.
	_ [64]byte
	writePath
}

// Wrap builds a Service over table; zero config fields take defaults.
func Wrap(table pagetable.PageTable, cfg Config) (*Service, error) {
	if table == nil {
		return nil, fmt.Errorf("service: nil table")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Service{frontEnd: newFrontEnd(table, cfg)}
	s.writePath = newWritePath(cfg.LogBlock, []*frontEnd{&s.frontEnd}, nil)
	return s, nil
}

// MustWrap is Wrap for known-good configurations; it panics on error.
func MustWrap(table pagetable.PageTable, cfg Config) *Service {
	s, err := Wrap(table, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Table returns the wrapped organization, for size and walk-cost
// inspection. Callers must not mutate it directly while the service is
// in use — direct writes bypass cache invalidation.
//
//ptlint:allow guardedby write-once pointer escape hatch; the doc contract forbids concurrent mutation
func (s *Service) Table() pagetable.PageTable { return s.table }

// Lookup implements PageTable through the front end's lock-free hit
// path, counting the outcome in the page block's stripe.
func (s *Service) Lookup(va addr.V) (e pte.Entry, ok bool) {
	ok = s.countedLookup(va, &e)
	return
}

// Map implements PageTable.
func (s *Service) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	return s.mapAt(0, vpn, ppn, attr)
}

// MapRange implements PageTable: the batched region-fault path, one
// stripe acquisition and one batch of wrapped-table inserts per page
// block.
func (s *Service) MapRange(vpn addr.VPN, ppn addr.PPN, n uint64, attr pte.Attr) (int, error) {
	return s.mapRangeAt(0, vpn, ppn, n, attr)
}

// Unmap implements PageTable.
func (s *Service) Unmap(vpn addr.VPN) error { return s.unmapAt(0, vpn) }

// Protect implements PageTable, one page block at a time: stripe write
// lock, wrapped-table protect of the block's sub-range, invalidation of
// the covered cache slots.
func (s *Service) Protect(r addr.Range, set, clear pte.Attr) error {
	return s.protectAt(0, r, set, clear)
}

// Demote splits the compact PTE covering vpn's block back into base
// PTEs, for organizations that support in-place demotion (clustered
// tables) with a subblock factor no coarser than the lock block. It
// reports whether a split happened. Translations are unchanged; the
// covered slots are invalidated anyway so the next lookups observe the
// new PTE format, the same shootdown a real demotion performs.
func (s *Service) Demote(vpn addr.VPN) bool { return s.demoteAt(0, vpn) }

// Reset rewinds the wrapped table's arenas (when it implements
// pagetable.Resetter), flushes the whole translation cache, and zeroes
// the service counters. Callers must be quiescent: every stripe is
// taken exclusively for the duration to stop in-flight fills from
// republishing dead translations.
func (s *Service) Reset() { s.resetAll() }

// Stats implements PageTable.
func (s *Service) Stats() Stats {
	st := s.writeStats()
	s.addLookups(&st)
	return st
}

var _ PageTable = (*Service)(nil)
