package main

import "testing"

// TestComputeSelf checks self times on a hand-built tree:
//
//	root [0,100)
//	├── a [10,40)        ── a1 [15,25), a2 [20,30) (overlapping)
//	├── b [35,60)        (overlaps a by 5)
//	└── c [90,120)       (runs past the root's end)
func TestComputeSelf(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "txn.NewOrder", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stmt.select", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "sched.wait", Start: 15, End: 25},
		{ID: 4, Parent: 2, Name: "server.exec", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "stmt.update", Start: 35, End: 60},
		{ID: 6, Parent: 1, Name: "stmt.commit", Start: 90, End: 120},
		{ID: 7, Name: "merge.stock", Start: 50, End: 70},
	}
	computeSelf(spans)
	want := map[uint64]int64{
		1: 100 - (60 - 10) - (100 - 90), // children cover [10,60) and [90,100)
		2: 30 - (30 - 15),               // a1 ∪ a2 = [15,30)
		3: 10, 4: 10, 5: 25, 6: 30, 7: 20,
	}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
	layers := selfByLayer(spans)
	for layer, v := range map[string]int64{"client": 40, "wire": 15 + 25 + 30, "sched": 10, "server": 10, "merge": 20} {
		if layers[layer] != v {
			t.Errorf("layer %s: self %d, want %d", layer, layers[layer], v)
		}
	}
}

// TestCompareResult checks that ties may come in any order and that a
// LIMIT-cut tie group is compared on its sort key only.
func TestCompareResult(t *testing.T) {
	// Q8: ORDER BY orders DESC, no LIMIT — tied rows may swap.
	want := [][]any{{"CA", int64(9)}, {"NY", int64(5)}, {"TX", int64(5)}}
	got := [][]any{{"CA", int64(9)}, {"TX", int64(5)}, {"NY", int64(5)}}
	if err := compareResult(8, want, got); err != nil {
		t.Errorf("Q8 tie order: %v", err)
	}
	got[2] = []any{"WA", int64(5)}
	if err := compareResult(8, want, got); err == nil {
		t.Error("Q8: a different row in an uncut tie group passed")
	}
	// Q2: ORDER BY ordered DESC LIMIT — the cut group may keep other items.
	want = [][]any{{int64(7), int64(3)}, {int64(1), int64(0)}, {int64(2), int64(0)}}
	got = [][]any{{int64(7), int64(3)}, {int64(9), int64(0)}, {int64(4), int64(0)}}
	if err := compareResult(2, want, got); err != nil {
		t.Errorf("Q2 limit-cut ties: %v", err)
	}
	got[0] = []any{int64(8), int64(3)}
	if err := compareResult(2, want, got); err == nil {
		t.Error("Q2: a different row outside the cut group passed")
	}
	// Floats match to floatRelTol.
	if !valueEq(1.0, 1.0+1e-12) || valueEq(1.0, 1.0+1e-6) {
		t.Error("float tolerance")
	}
}
