// Package memcost implements the cache-line cost model of §6.1: the
// average number of cache lines accessed to handle one TLB miss is the
// paper's (indirect) metric for page table access time. The model assumes
// a level-two cache line of 256 bytes by default and that each PTE starts
// on a cache-line boundary.
package memcost

import (
	"fmt"
	"math/bits"
)

// DefaultLineSize is the 256-byte level-two cache line assumed in §6.1.
const DefaultLineSize = 256

// Model describes the cache-line geometry used for accounting.
type Model struct {
	// LineSize is the cache line size in bytes. Must be a power of two.
	LineSize int
}

// NewModel returns a model with the given line size, defaulting to 256
// bytes if lineSize is zero.
func NewModel(lineSize int) Model {
	if lineSize == 0 {
		lineSize = DefaultLineSize
	}
	if lineSize < 8 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("memcost: invalid line size %d", lineSize))
	}
	return Model{LineSize: lineSize}
}

// Span counts the distinct cache lines covered by the byte range
// [off, off+length) within an object that starts on a line boundary.
// Offsets are non-negative; a non-positive length covers no line.
// LineSize is a power of two (NewModel validates), so the line index of
// a byte is its offset shifted right by log2(LineSize).
func (m Model) Span(off, length int) int {
	if length <= 0 {
		return 0
	}
	sh := m.lineShift()
	return (off+length-1)>>sh - off>>sh + 1
}

// Span2 counts the distinct cache lines covered by two ordered,
// non-overlapping byte ranges of one line-aligned object (the second
// starts at or after the first ends): the two spans, less the line they
// share when the first range ends on the line the second begins on.
func (m Model) Span2(off1, len1, off2, len2 int) int {
	if len1 <= 0 {
		return m.Span(off2, len2)
	}
	if len2 <= 0 {
		return m.Span(off1, len1)
	}
	sh := m.lineShift()
	last1, first2 := (off1+len1-1)>>sh, off2>>sh
	n := last1 - off1>>sh + 1 + (off2+len2-1)>>sh - first2 + 1
	if last1 == first2 {
		n--
	}
	return n
}

// lineShift is log2(LineSize).
func (m Model) lineShift() uint {
	return uint(bits.TrailingZeros(uint(m.LineSize)))
}

// Tally aggregates walk costs across an experiment.
type Tally struct {
	// Events is the number of walks (TLB misses serviced).
	Events uint64
	// Lines is the total cache lines touched across all walks.
	Lines uint64
	// Refs is the total memory references across all walks.
	Refs uint64
}

// AddCost folds a raw line count into the tally.
func (t *Tally) AddCost(lines int) {
	t.Events++
	t.Lines += uint64(lines)
	t.Refs += uint64(lines)
}

// Merge folds another tally into this one.
func (t *Tally) Merge(o Tally) {
	t.Events += o.Events
	t.Lines += o.Lines
	t.Refs += o.Refs
}

// AvgLines returns average cache lines per event, the paper's Figure 11
// metric, normalized by denom events (pass t.Events for self-normalized).
func (t Tally) AvgLines(denom uint64) float64 {
	if denom == 0 {
		return 0
	}
	return float64(t.Lines) / float64(denom)
}
