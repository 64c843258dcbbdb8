package types

import "testing"

func TestNullMaskBasics(t *testing.T) {
	var m *NullMask
	if m.AnyNull() || m.CountNulls() != 0 || m.IsNull(3) || m.Len() != 0 {
		t.Fatal("nil mask must read as all-valid")
	}
	m = NewNullMask(100)
	if m.AnyNull() {
		t.Fatal("fresh mask must be all-valid")
	}
	m.Set(0, true)
	m.Set(63, true)
	m.Set(64, true)
	m.Set(99, true)
	if !m.AnyNull() || m.CountNulls() != 4 {
		t.Fatalf("CountNulls = %d, want 4", m.CountNulls())
	}
	for _, i := range []int{0, 63, 64, 99} {
		if !m.IsNull(i) {
			t.Errorf("IsNull(%d) = false", i)
		}
	}
	if m.IsNull(1) || m.IsNull(65) || m.IsNull(1000) {
		t.Error("unexpected null positions")
	}
	m.Set(63, false)
	if m.IsNull(63) || m.CountNulls() != 3 {
		t.Error("Set(63, false) did not clear")
	}
}

func TestNullMaskAppendAndReset(t *testing.T) {
	m := &NullMask{}
	for i := 0; i < 200; i++ {
		m.Append(i%3 == 0)
	}
	if m.Len() != 200 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 200; i++ {
		if m.IsNull(i) != (i%3 == 0) {
			t.Fatalf("IsNull(%d) = %v", i, m.IsNull(i))
		}
	}
	m.Reset()
	if m.Len() != 0 || m.AnyNull() {
		t.Fatal("Reset must clear bits and length")
	}
	m.AppendN(70, false)
	m.AppendN(3, true)
	if m.Len() != 73 || m.CountNulls() != 3 || !m.IsNull(71) || m.IsNull(69) {
		t.Fatalf("AppendN: len=%d nulls=%d", m.Len(), m.CountNulls())
	}
}

func TestVectorBulkAppendInts(t *testing.T) {
	v := NewVector(Int64, 8)
	vals := []int64{10, 20, 30, 40, 50}
	v.AppendInts(vals, nil, nil)
	if v.Len() != 5 || v.Ints[4] != 50 || v.HasNulls() {
		t.Fatalf("dense bulk append: %v", v.Ints)
	}
	// Gather through a selection with nulls.
	nm := NewNullMask(5)
	nm.Set(1, true)
	v.AppendInts(vals, nm, []int{1, 3})
	if v.Len() != 7 {
		t.Fatalf("Len = %d", v.Len())
	}
	if !v.IsNull(5) || v.IsNull(6) || v.Ints[6] != 40 {
		t.Fatalf("gathered append wrong: ints=%v nulls at 5:%v 6:%v", v.Ints, v.IsNull(5), v.IsNull(6))
	}
	// Earlier positions must remain valid after the mask materialized.
	for i := 0; i < 5; i++ {
		if v.IsNull(i) {
			t.Errorf("position %d became null retroactively", i)
		}
	}
}

func TestVectorBulkAppendFloatsStrings(t *testing.T) {
	vf := NewVector(Float64, 4)
	fm := NewNullMask(3)
	fm.Set(2, true)
	vf.AppendFloats([]float64{1.5, 2.5, 0}, fm, nil)
	if vf.Len() != 3 || vf.Get(1).F != 2.5 || !vf.IsNull(2) {
		t.Fatalf("float bulk append: %v", vf.Floats)
	}
	vs := NewVector(String, 4)
	vs.AppendStrings([]string{"a", "b", "c"}, nil, []int{2, 0})
	if vs.Len() != 2 || vs.Strings[0] != "c" || vs.Strings[1] != "a" {
		t.Fatalf("string gather append: %v", vs.Strings)
	}
}

func TestBatchCopyDetaches(t *testing.T) {
	s := MustSchema([]Column{{"id", Int64}, {"name", String}})
	b := NewBatch(s, 4)
	b.AppendRow(Row{NewInt(1), NewString("a")})
	b.AppendRow(Row{NewInt(2), NewNull(String)})
	b.AppendRow(Row{NewInt(3), NewString("c")})
	b.Sel = []int{0, 2}
	cp := b.Copy()
	if cp.Len() != 2 || cp.Sel != nil {
		t.Fatalf("Copy: len=%d sel=%v", cp.Len(), cp.Sel)
	}
	// Mutating the original must not affect the copy.
	b.Cols[0].Ints[0] = 99
	if cp.Cols[0].Ints[0] != 1 || cp.Cols[1].Strings[1] != "c" {
		t.Fatalf("Copy shares storage with original")
	}
	// Null bits survive the copy when selected.
	b.Sel = []int{1}
	cp2 := b.Copy()
	if !cp2.Cols[1].IsNull(0) {
		t.Error("null bit lost in Copy")
	}
}

// TestBatchResetReuse pins the reuse the scan workers rely on: a Reset
// batch keeps its backing arrays, carries no stale null bits, and
// refills without allocating.
func TestBatchResetReuse(t *testing.T) {
	s := MustSchema([]Column{{"id", Int64}})
	b := NewBatch(s, 16)
	b.AppendRow(Row{NewInt(1)})
	b.AppendRow(Row{NewNull(Int64)})
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("batch not reset")
	}
	b.AppendRow(Row{NewInt(7)})
	if b.Cols[0].IsNull(0) {
		t.Fatal("stale null bit after reuse")
	}
	// Steady state must not allocate.
	vals := []int64{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(10, func() {
		b.Reset()
		for i := 0; i < 4; i++ {
			b.Cols[0].AppendInts(vals, nil, nil)
		}
	})
	if allocs > 0 {
		t.Fatalf("Reset/fill allocated %.1f times", allocs)
	}
}
