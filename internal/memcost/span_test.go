package memcost

import (
	"math/rand/v2"
	"testing"
)

// TestTouchBitmaskOverflow pins line counting far from the object start:
// two words sharing a line 556 lines in count once, and a range
// straddling the boundary between lines 255 and 256 counts both.
func TestTouchBitmaskOverflow(t *testing.T) {
	m := NewModel(256)
	farOff := 256 * 256
	lines := m.Span2(farOff+300*256, 8, farOff+300*256+8, 8) +
		m.Span(0, 8) +
		m.Span(256*256-8, 16)
	// Lines: far line (deduplicated), line 0, lines 255 and 256.
	if lines != 4 {
		t.Errorf("lines = %d, want 4", lines)
	}
}

// bruteLines counts the distinct lines of the given {off, len} ranges by
// enumerating every byte: the reference the shift arithmetic must match.
func bruteLines(lineSize int, ranges ...[2]int) int {
	seen := map[int]bool{}
	for _, r := range ranges {
		for b := r[0]; b < r[0]+r[1]; b++ {
			seen[b/lineSize] = true
		}
	}
	return len(seen)
}

// TestSpanDifferential compares Span and Span2 against bruteLines over
// seeded random non-negative ranges at every modelled line size, plus
// the edges: empty and negative lengths, adjacent ranges, ranges sharing
// a line, and the max-PPN offsets of TestSpanMaxPPNOffsets.
func TestSpanDifferential(t *testing.T) {
	maxPPNOff := (1 << 52) * 8
	for _, lineSize := range []int{8, 16, 64, 128, 256, 4096} {
		m := NewModel(lineSize)
		check := func(off1, len1, off2, len2 int) {
			t.Helper()
			if got, want := m.Span(off1, len1), bruteLines(lineSize, [2]int{off1, len1}); got != want {
				t.Fatalf("line=%d Span(%d,%d) = %d, want %d", lineSize, off1, len1, got, want)
			}
			want := bruteLines(lineSize, [2]int{off1, len1}, [2]int{off2, len2})
			if got := m.Span2(off1, len1, off2, len2); got != want {
				t.Fatalf("line=%d Span2(%d,%d,%d,%d) = %d, want %d",
					lineSize, off1, len1, off2, len2, got, want)
			}
		}
		rng := rand.New(rand.NewPCG(1, uint64(lineSize)))
		for i := 0; i < 2000; i++ {
			off1 := rng.IntN(4 * lineSize)
			len1 := rng.IntN(3*lineSize) - 2 // includes 0 and negative lengths
			end1 := off1 + max(len1, 0)
			off2 := end1 + rng.IntN(2*lineSize)
			len2 := rng.IntN(3*lineSize) - 2
			check(off1, len1, off2, len2)
		}
		for _, c := range [][4]int{
			{0, 0, 0, 0},
			{0, -1, 8, -5},
			{0, 8, 8, 8},                               // adjacent
			{0, lineSize, lineSize, 8},                 // adjacent across a boundary
			{0, 1, lineSize - 1, 1},                    // sharing the first line
			{lineSize - 4, 8, lineSize + 4, 8},         // sharing the second line
			{0, 16, 16 + 8*15, 8},                      // clustered header + last mapping
			{0, 16, 16, 16 * 8},                        // clustered header + full word run
			{maxPPNOff, 8, maxPPNOff + 8, 8},           // max-PPN adjacent slots
			{maxPPNOff - 4, 8, maxPPNOff + 255, 2},     // max-PPN crossings
			{maxPPNOff + 255, 1, maxPPNOff + 256, 512}, // max-PPN line end
		} {
			check(c[0], c[1], c[2], c[3])
		}
	}
}

// BenchmarkSpan pins the walk hot path at zero allocations: line spans
// are computed for every node of every simulated TLB-miss walk.
func BenchmarkSpan(b *testing.B) {
	m := NewModel(256)
	lines := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A clustered-table walk shape: tag+next then a PTE word run.
		lines += m.Span2(0, 16, 16, 128)
		lines += m.Span2(0, 16, 16, 8)
	}
	if testing.AllocsPerRun(100, func() {
		lines += m.Span2(0, 16, 256, 64)
	}) != 0 {
		b.Fatal("Span2 allocates on the fast path")
	}
	if lines == 0 {
		b.Fatal("no lines counted")
	}
}
