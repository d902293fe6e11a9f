package memcost

import (
	"math"
	"testing"
)

// TestSpanMaxPPNOffsets drives Span with offsets at the top of the
// physical address range: a 52-bit PPN's PTE array offset (ppn*8) is
// ~2^55, far beyond any real table but still well inside int64, and
// the line arithmetic must not wrap.
func TestSpanMaxPPNOffsets(t *testing.T) {
	m := NewModel(256)
	maxPPNOff := (1 << 52) * 8 // last PTE slot of a full 52-bit frame space
	cases := []struct {
		name     string
		off, len int
		want     int
	}{
		{"max-PPN slot", maxPPNOff, 8, 1},
		{"max-PPN crossing", maxPPNOff - 4, 8, 2},
		{"huge range", 0, 1 << 30, 1 << 22},
		{"offset at line end", maxPPNOff + 255, 1, 1},
		{"offset at line end crossing", maxPPNOff + 255, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := m.Span(c.off, c.len); got != c.want {
				t.Errorf("Span(%d,%d) = %d, want %d", c.off, c.len, got, c.want)
			}
		})
	}
}

// TestMeterMaxPPNCost mirrors the Span cases through the two-range
// shape the walks use.
func TestMeterMaxPPNCost(t *testing.T) {
	m := NewModel(256)
	off := (1 << 52) * 8
	if got := m.Span2(off, 8, off+8, 8); got != 1 {
		t.Errorf("adjacent max-PPN slots: lines = %d, want 1", got)
	}
	if got := m.Span(off, 512); got != 2 {
		t.Errorf("two-line range at max offset: lines = %d, want 2", got)
	}
}

// TestTallyZeroPageWorkload pins the zero-page workload path: no
// events, no lines, and AvgLines stays 0 (not NaN) under both
// self-normalization and an external denominator.
func TestTallyZeroPageWorkload(t *testing.T) {
	var tally Tally
	if got := tally.AvgLines(tally.Events); got != 0 {
		t.Errorf("empty AvgLines(self) = %v, want 0", got)
	}
	if got := tally.AvgLines(0); got != 0 || math.IsNaN(got) {
		t.Errorf("empty AvgLines(0) = %v, want 0", got)
	}
	var other Tally
	tally.Merge(other)
	if tally.Events != 0 || tally.Lines != 0 || tally.Refs != 0 {
		t.Errorf("merge of empty tallies = %+v", tally)
	}
	// A zero-cost event still counts as an event.
	tally.AddCost(0)
	if tally.Events != 1 || tally.Lines != 0 {
		t.Errorf("zero-cost event tally = %+v", tally)
	}
	if got := tally.AvgLines(tally.Events); got != 0 {
		t.Errorf("AvgLines after zero-cost event = %v, want 0", got)
	}
}

// TestAvgLinesExternalDenominator pins the Figure 11 normalization
// convention: denom can exceed Events (misses normalized against all
// references), scaling the average down.
func TestAvgLinesExternalDenominator(t *testing.T) {
	var tally Tally
	tally.AddCost(3)
	tally.AddCost(5)
	if got := tally.AvgLines(4); got != 2 {
		t.Errorf("AvgLines(4) = %v, want 2", got)
	}
	if got := tally.AvgLines(tally.Events); got != 4 {
		t.Errorf("AvgLines(self) = %v, want 4", got)
	}
}

// TestNewModelBounds pins the validity envelope: 8 is the smallest
// power-of-two line, anything smaller or non-power-of-two panics.
func TestNewModelBounds(t *testing.T) {
	if NewModel(8).LineSize != 8 {
		t.Error("NewModel(8) rejected")
	}
	for _, bad := range []int{4, -256, 7, 384} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModel(%d) accepted", bad)
				}
			}()
			NewModel(bad)
		}()
	}
}
