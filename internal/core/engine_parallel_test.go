package core

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage/colstore"
	"repro/internal/types"
)

func buildParallelEngine(t *testing.T, parallelism int) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "v", Type: types.Int64},
	}, "id")
	if _, err := e.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	tx := e.Begin()
	for i := 0; i < n; i++ {
		if err := tx.Insert("t", types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Merge most rows into the column store, leave a tail in the delta
	// so the scan unions both formats.
	if _, err := e.Merge("t"); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	for i := n; i < n+500; i++ {
		if err := tx.Insert("t", types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestScanParallelismOption: a Parallelism>1 engine must return exactly
// the serial engine's scan results, through both the callback Scan API
// and the ScanOperator bridge (which must detach pooled batches).
func TestScanParallelismOption(t *testing.T) {
	type result struct {
		rows int
		sum  int64
	}
	run := func(par int) result {
		e := buildParallelEngine(t, par)
		defer e.Close()
		tx := e.Begin()
		defer tx.Abort()
		var r result
		_, err := tx.Scan("t", []int{1}, []colstore.Predicate{
			{Col: 1, Op: colstore.OpLt, Val: types.NewInt(50)},
		}, func(b *types.Batch) bool {
			c := b.Cols[0]
			for i := 0; i < b.Len(); i++ {
				phys := b.RowIdx(i)
				r.rows++
				r.sum += c.Ints[phys]
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial := run(1)
	for _, par := range []int{2, 4} {
		got := run(par)
		if got != serial {
			t.Errorf("parallelism=%d: %+v != serial %+v", par, got, serial)
		}
	}
	if serial.rows == 0 {
		t.Fatal("scan matched nothing; fixture broken")
	}
}

// TestScanCtxCallsFnSerially: Tx.ScanCtx runs the morsel scan on
// several workers but funnels them, so fn may mutate unsynchronized
// state (make race flags a broken funnel) and is never re-entered; once
// fn returns false it is not called again.
func TestScanCtxCallsFnSerially(t *testing.T) {
	e := buildParallelEngine(t, 4)
	defer e.Close()
	tx := e.Begin()
	defer tx.Abort()
	var inside atomic.Int32
	rows, batches := 0, 0
	seen := map[int64]bool{}
	_, err := tx.ScanCtx(context.Background(), "t", []int{0}, nil, func(b *types.Batch) bool {
		if inside.Add(1) != 1 {
			t.Error("fn entered concurrently")
		}
		defer inside.Add(-1)
		batches++
		for i := 0; i < b.Len(); i++ {
			seen[b.Cols[0].Ints[b.RowIdx(i)]] = true
			rows++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 10_500 || len(seen) != rows {
		t.Fatalf("rows = %d, distinct ids = %d, want 10500 each", rows, len(seen))
	}
	if batches < 4 {
		t.Fatalf("batches = %d: fixture too small to exercise the funnel", batches)
	}
	calls := 0
	if _, err := tx.ScanCtx(context.Background(), "t", []int{0}, nil, func(b *types.Batch) bool {
		calls++
		return calls < 2
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2 (no call after it returned false)", calls)
	}
}

func TestScanOperatorUnderParallelism(t *testing.T) {
	sumVia := func(par int) (int64, int) {
		e := buildParallelEngine(t, par)
		defer e.Close()
		tx := e.Begin()
		defer tx.Abort()
		op, err := tx.ScanOperator(context.Background(), "t", []int{0, 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum, n, err := exec.SumInt64(op, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sum, n
	}
	s1, n1 := sumVia(1)
	s4, n4 := sumVia(4)
	if s1 != s4 || n1 != n4 {
		t.Fatalf("ScanOperator parallel (%d,%d) != serial (%d,%d)", s4, n4, s1, n1)
	}
	if n1 != 10_500 {
		t.Fatalf("rows = %d, want 10500 (%s)", n1, "cold + delta")
	}
}

// Aggregation through the typed path over a parallel scan: the whole
// E10-style pipeline against live storage.
func TestTypedAggregateOverParallelScan(t *testing.T) {
	e := buildParallelEngine(t, 4)
	defer e.Close()
	tx := e.Begin()
	defer tx.Abort()
	op, err := tx.ScanOperator(context.Background(), "t", []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := exec.NewHashAggregate(op,
		[]int{0},
		[]exec.AggSpec{{Func: exec.AggCountStar, Name: "n"}})
	rows, err := exec.Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("groups = %d, want 100", len(rows))
	}
	total := int64(0)
	for _, r := range rows {
		total += r[1].I
	}
	if total != 10_500 {
		t.Fatalf("total count = %d, want 10500", total)
	}
}
