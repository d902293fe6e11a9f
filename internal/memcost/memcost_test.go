package memcost

import "testing"

func TestNewModelDefault(t *testing.T) {
	if NewModel(0).LineSize != 256 {
		t.Error("default line size not 256")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewModel(100) accepted")
		}
	}()
	NewModel(100)
}

func TestSpan(t *testing.T) {
	m := NewModel(256)
	cases := []struct {
		off, len, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 256, 1},
		{0, 257, 2},
		{255, 2, 2},
		{16, 128, 1}, // clustered PTE mappings within one 256B line
		{0, 144, 1},  // whole s=16 clustered PTE in one 256B line
		{512, 8, 1},
	}
	for _, c := range cases {
		if got := m.Span(c.off, c.len); got != c.want {
			t.Errorf("Span(%d,%d) = %d, want %d", c.off, c.len, got, c.want)
		}
	}
}

// TestClusteredPTELineCrossing reproduces the §6.3 arithmetic: a subblock
// factor 16 clustered PTE is 144 bytes (16-byte tag+next header, then 16
// 8-byte mappings at offsets 16+8i). With 256-byte lines every mapping
// shares the tag's line; with 128-byte lines mappings 14 and 15 spill into
// a second line (2/16 = 0.125 extra lines on average); with 64-byte lines
// mappings 6..15 spill (10/16 = 0.625).
func TestClusteredPTELineCrossing(t *testing.T) {
	for _, c := range []struct {
		lineSize int
		spills   int
	}{
		{256, 0}, {128, 2}, {64, 10},
	} {
		m := NewModel(c.lineSize)
		spills := 0
		for i := 0; i < 16; i++ {
			// One walk touching the tag (offset 0..15) and mapping i.
			switch n := m.Span2(0, 16, 16+8*i, 8); n {
			case 1:
			case 2:
				spills++
			default:
				t.Fatalf("line=%d mapping %d touched %d lines", c.lineSize, i, n)
			}
		}
		if spills != c.spills {
			t.Errorf("line=%d: %d mappings spill, want %d", c.lineSize, spills, c.spills)
		}
	}
}

// TestMeterDedupWithinTouch pins line dedupe across the ranges of one
// object: adjacent words on one line count once, a word on the next
// line adds one.
func TestMeterDedupWithinTouch(t *testing.T) {
	m := NewModel(256)
	if got := m.Span2(0, 8, 8, 8); got != 1 {
		t.Errorf("Span2(0,8,8,8) = %d, want 1", got)
	}
	if got := m.Span2(8, 8, 300, 8); got != 2 {
		t.Errorf("Span2(8,8,300,8) = %d, want 2", got)
	}
	if got := m.Span2(0, 16, 300, 8); got != 2 {
		t.Errorf("Span2(0,16,300,8) = %d, want 2", got)
	}
}

// TestMeterSeparateObjects pins the per-object convention: two distinct
// hash nodes each start on their own line even though their offsets
// coincide, so their spans add.
func TestMeterSeparateObjects(t *testing.T) {
	m := NewModel(256)
	if got := m.Span(0, 24) + m.Span(0, 24); got != 2 {
		t.Errorf("lines = %d, want 2", got)
	}
}

func TestTally(t *testing.T) {
	var tally Tally
	tally.AddCost(2)
	tally.AddCost(4)
	if tally.Events != 2 || tally.Lines != 6 {
		t.Errorf("tally = %+v", tally)
	}
	if got := tally.AvgLines(tally.Events); got != 3 {
		t.Errorf("AvgLines = %v", got)
	}
	if got := tally.AvgLines(0); got != 0 {
		t.Errorf("AvgLines(0) = %v", got)
	}
	var other Tally
	other.AddCost(1)
	tally.Merge(other)
	if tally.Events != 3 || tally.Lines != 7 {
		t.Errorf("after merge = %+v", tally)
	}
}

func TestTouchIgnoresEmptyRanges(t *testing.T) {
	m := NewModel(256)
	if m.Span(0, 0) != 0 || m.Span(8, -1) != 0 || m.Span2(0, 0, 8, -1) != 0 {
		t.Error("empty ranges counted")
	}
	if got := m.Span2(0, 0, 8, 8); got != 1 {
		t.Errorf("Span2 with an empty first range = %d, want 1", got)
	}
	if got := m.Span2(0, 8, 8, 0); got != 1 {
		t.Errorf("Span2 with an empty second range = %d, want 1", got)
	}
}
