package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/storage/colstore"
	"repro/internal/txn"
	"repro/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "cat", Type: types.String},
		{Name: "qty", Type: types.Int64},
	}, "id")
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

func row(id int64, cat string, qty int64) types.Row {
	return types.Row{types.NewInt(id), types.NewString(cat), types.NewInt(qty)}
}

func key(id int64) types.Row { return types.Row{types.NewInt(id)} }

func mustExec(t *testing.T, e *Engine, fn func(tx *Tx) error) uint64 {
	t.Helper()
	tx := e.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func countVisible(t *testing.T, e *Engine, table string) int {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	n := 0
	_, err := tx.Scan(table, nil, nil, func(b *types.Batch) bool {
		n += b.Len()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEngineTableLifecycle(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.CreateTable("items", testSchema()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := e.Table("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	if got := e.Tables(); len(got) != 1 || got[0] != "items" {
		t.Fatalf("Tables = %v", got)
	}
}

func TestCRUDThroughEngine(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(1, "a", 10)) })
	// Read it back.
	tx := e.Begin()
	got, ok, err := tx.Get("items", key(1))
	if err != nil || !ok || got[2].I != 10 {
		t.Fatalf("Get = %v %v %v", got, ok, err)
	}
	tx.Abort()
	// Update.
	mustExec(t, e, func(tx *Tx) error { return tx.Update("items", key(1), row(1, "a", 20)) })
	tx = e.Begin()
	got, _, _ = tx.Get("items", key(1))
	if got[2].I != 20 {
		t.Fatal("update lost")
	}
	tx.Abort()
	// Delete.
	mustExec(t, e, func(tx *Tx) error { return tx.Delete("items", key(1)) })
	tx = e.Begin()
	_, ok, _ = tx.Get("items", key(1))
	if ok {
		t.Fatal("delete lost")
	}
	tx.Abort()
	// Errors.
	tx = e.Begin()
	if err := tx.Update("items", key(99), row(99, "x", 1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := tx.Delete("items", key(99)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	tx.Abort()
}

func TestMergeMovesRowsToColumnStore(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error {
		for i := int64(0); i < 500; i++ {
			if err := tx.Insert("items", row(i, "a", i)); err != nil {
				return err
			}
		}
		return nil
	})
	tbl, _ := e.Table("items")
	if tbl.DeltaRows() != 500 || tbl.ColdRows() != 0 {
		t.Fatalf("pre-merge: delta=%d cold=%d", tbl.DeltaRows(), tbl.ColdRows())
	}
	res, err := e.Merge("items")
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 500 {
		t.Fatalf("merged %d", res.Merged)
	}
	if tbl.DeltaRows() != 0 || tbl.ColdRows() != 500 {
		t.Fatalf("post-merge: delta=%d cold=%d", tbl.DeltaRows(), tbl.ColdRows())
	}
	if tbl.Merges() != 1 {
		t.Fatal("merge count")
	}
	// Scan still sees all rows.
	if n := countVisible(t, e, "items"); n != 500 {
		t.Fatalf("post-merge scan = %d rows", n)
	}
	// Point reads hit the column store now.
	tx := e.Begin()
	got, ok, _ := tx.Get("items", key(250))
	if !ok || got[2].I != 250 {
		t.Fatalf("post-merge Get = %v %v", got, ok)
	}
	tx.Abort()
}

func TestMergeIsResultTransparent(t *testing.T) {
	// Dual-format equivalence invariant: any merge schedule must not
	// change query results.
	e1 := newTestEngine(t) // merged at various points
	e2 := newTestEngine(t) // never merged
	apply := func(e *Engine, op int, i int64) {
		switch op {
		case 0:
			mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(i, "c", i*2)) })
		case 1:
			mustExec(t, e, func(tx *Tx) error { return tx.Update("items", key(i/2), row(i/2, "u", i)) })
		case 2:
			mustExec(t, e, func(tx *Tx) error { return tx.Delete("items", key(i/3)) })
		}
	}
	ops := []struct {
		op int
		i  int64
	}{}
	for i := int64(0); i < 200; i++ {
		ops = append(ops, struct {
			op int
			i  int64
		}{0, i})
	}
	for i := int64(0); i < 100; i += 2 {
		ops = append(ops, struct {
			op int
			i  int64
		}{1, i * 2})
	}
	for i := int64(0); i < 60; i += 3 {
		ops = append(ops, struct {
			op int
			i  int64
		}{2, i * 3})
	}
	for n, o := range ops {
		apply(e1, o.op, o.i)
		apply(e2, o.op, o.i)
		if n%37 == 0 {
			if _, err := e1.Merge("items"); err != nil {
				t.Fatal(err)
			}
		}
	}
	e1.Merge("items")
	// Compare full scans.
	collect := func(e *Engine) map[int64]int64 {
		out := map[int64]int64{}
		tx := e.Begin()
		defer tx.Abort()
		tx.Scan("items", nil, nil, func(b *types.Batch) bool {
			for i := 0; i < b.Len(); i++ {
				r := b.Row(i)
				out[r[0].I] = r[2].I
			}
			return true
		})
		return out
	}
	m1, m2 := collect(e1), collect(e2)
	if len(m1) != len(m2) {
		t.Fatalf("row counts differ: merged=%d unmerged=%d", len(m1), len(m2))
	}
	for k, v := range m2 {
		if m1[k] != v {
			t.Fatalf("key %d: merged=%d unmerged=%d", k, m1[k], v)
		}
	}
}

func TestOldSnapshotReadsAfterMerge(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(1, "a", 1)) })
	// Open a reader BEFORE the next write and the merge.
	oldReader := e.Begin()
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(2, "b", 2)) })
	if _, err := e.Merge("items"); err != nil {
		t.Fatal(err)
	}
	// The old reader must see only row 1 even though both rows now live
	// in the column store (per-row insert timestamps).
	n := 0
	oldReader.Scan("items", nil, nil, func(b *types.Batch) bool {
		n += b.Len()
		return true
	})
	if n != 1 {
		t.Fatalf("old snapshot saw %d rows, want 1", n)
	}
	if _, ok, _ := oldReader.Get("items", key(2)); ok {
		t.Fatal("old snapshot saw a future row")
	}
	oldReader.Abort()
}

func TestWritesAfterMergeUpdateMergedRows(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error {
		for i := int64(0); i < 10; i++ {
			if err := tx.Insert("items", row(i, "a", 0)); err != nil {
				return err
			}
		}
		return nil
	})
	e.Merge("items")
	// Update a merged row: must invalidate the segment copy and place
	// the new version in the delta.
	mustExec(t, e, func(tx *Tx) error { return tx.Update("items", key(5), row(5, "a", 99)) })
	tx := e.Begin()
	got, ok, _ := tx.Get("items", key(5))
	if !ok || got[2].I != 99 {
		t.Fatalf("updated merged row = %v", got)
	}
	// No double count.
	n := 0
	tx.Scan("items", nil, nil, func(b *types.Batch) bool { n += b.Len(); return true })
	if n != 10 {
		t.Fatalf("scan after update-of-merged = %d rows, want 10", n)
	}
	tx.Abort()
	// Delete a merged row.
	mustExec(t, e, func(tx *Tx) error { return tx.Delete("items", key(3)) })
	if n := countVisible(t, e, "items"); n != 9 {
		t.Fatalf("after delete = %d", n)
	}
	// Re-insert the deleted key.
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(3, "re", 33)) })
	tx = e.Begin()
	got, _, _ = tx.Get("items", key(3))
	if got[1].S != "re" {
		t.Fatal("re-insert after merged delete")
	}
	tx.Abort()
	// Duplicate insert against a merged live row must fail.
	tx = e.Begin()
	if err := tx.Insert("items", row(5, "dup", 0)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup over merged row: %v", err)
	}
	tx.Abort()
	// Second merge folds the delta updates into a new segment.
	res, _ := e.Merge("items")
	if res.Merged == 0 {
		t.Fatal("second merge should move updated rows")
	}
	if n := countVisible(t, e, "items"); n != 10 {
		t.Fatalf("after second merge = %d", n)
	}
	tbl, _ := e.Table("items")
	if tbl.DeltaRows() != 0 {
		t.Fatalf("delta after second merge = %d", tbl.DeltaRows())
	}
}

func TestWriteWriteConflictOnMergedRow(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(1, "a", 0)) })
	e.Merge("items")
	t1, t2 := e.Begin(), e.Begin()
	if err := t1.Update("items", key(1), row(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update("items", key(1), row(1, "a", 2)); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("second writer on merged row: %v", err)
	}
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2.Abort()
}

func TestAbortRestoresMergedRow(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(1, "a", 7)) })
	e.Merge("items")
	tx := e.Begin()
	if err := tx.Update("items", key(1), row(1, "a", 100)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	got := e.Begin()
	r, ok, _ := got.Get("items", key(1))
	if !ok || r[2].I != 7 {
		t.Fatalf("abort did not restore merged row: %v", r)
	}
	got.Abort()
	if n := countVisible(t, e, "items"); n != 1 {
		t.Fatalf("rows = %d", n)
	}
}

func TestScanWithPredicatesAndProjection(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error {
		for i := int64(0); i < 100; i++ {
			cat := "x"
			if i%2 == 0 {
				cat = "y"
			}
			if err := tx.Insert("items", types.Row{types.NewInt(i), types.NewString(cat), types.NewInt(i * 2)}); err != nil {
				return err
			}
		}
		return nil
	})
	// Merge half so the scan spans both formats.
	e.Merge("items")
	mustExec(t, e, func(tx *Tx) error {
		for i := int64(100); i < 200; i++ {
			if err := tx.Insert("items", types.Row{types.NewInt(i), types.NewString("y"), types.NewInt(i * 2)}); err != nil {
				return err
			}
		}
		return nil
	})
	tx := e.Begin()
	defer tx.Abort()
	total := 0
	sum := int64(0)
	_, err := tx.Scan("items", []int{0, 2}, []colstore.Predicate{
		{Col: 1, Op: colstore.OpEq, Val: types.NewString("y")},
		{Col: 0, Op: colstore.OpLt, Val: types.NewInt(150)},
	}, func(b *types.Batch) bool {
		total += b.Len()
		for i := 0; i < b.Len(); i++ {
			if len(b.Row(i)) != 2 {
				t.Fatal("projection width")
			}
			sum += b.Row(i)[1].I
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// y rows: evens 0..98 (50) + 100..149 (50) = 100 rows.
	if total != 100 {
		t.Fatalf("matched %d rows", total)
	}
	var want int64
	for i := int64(0); i < 100; i += 2 {
		want += i * 2
	}
	for i := int64(100); i < 150; i++ {
		want += i * 2
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestScanOperatorBridgesToExec(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error {
		for i := int64(0); i < 50; i++ {
			if err := tx.Insert("items", row(i, "a", i)); err != nil {
				return err
			}
		}
		return nil
	})
	e.Merge("items")
	tx := e.Begin()
	defer tx.Abort()
	op, err := tx.ScanOperator(context.Background(), "items", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := exec.NewHashAggregate(op, nil, []exec.AggSpec{
		{Func: exec.AggCountStar},
		{Func: exec.AggSum, Col: 2},
	})
	rows, err := exec.Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 50 || rows[0][1].I != 49*50/2 {
		t.Fatalf("agg over scan = %v", rows[0])
	}
}

func TestConcurrentWritersAndMerges(t *testing.T) {
	e := newTestEngine(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Background merger.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Merge("items")
			time.Sleep(time.Millisecond)
		}
	}()
	// Concurrent inserters on disjoint keys.
	const G, N = 4, 300
	var wwg sync.WaitGroup
	for g := 0; g < G; g++ {
		wwg.Add(1)
		go func(g int) {
			defer wwg.Done()
			for i := 0; i < N; i++ {
				id := int64(g*N + i)
				tx := e.Begin()
				if err := tx.Insert("items", row(id, "w", id)); err != nil {
					t.Errorf("insert %d: %v", id, err)
					tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err != nil {
					t.Errorf("commit %d: %v", id, err)
				}
			}
		}(g)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	e.Merge("items")
	if n := countVisible(t, e, "items"); n != G*N {
		t.Fatalf("rows = %d, want %d (lost writes under concurrent merge)", n, G*N)
	}
}

func TestConcurrentReadersDuringMergeSeeStableCounts(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, func(tx *Tx) error {
		for i := int64(0); i < 2000; i++ {
			if err := tx.Insert("items", row(i, "a", 1)); err != nil {
				return err
			}
		}
		return nil
	})
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				tx := e.Begin()
				n := 0
				tx.Scan("items", []int{0}, nil, func(b *types.Batch) bool {
					n += b.Len()
					return true
				})
				tx.Abort()
				if n != 2000 {
					errs <- fmt.Sprintf("reader saw %d rows during merge", n)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 10; k++ {
			e.Merge("items")
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestAutoMerge(t *testing.T) {
	e, err := NewEngine(Options{MergeThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.CreateTable("items", testSchema())
	mustExec(t, e, func(tx *Tx) error {
		for i := int64(0); i < 150; i++ {
			if err := tx.Insert("items", row(i, "a", 1)); err != nil {
				return err
			}
		}
		return nil
	})
	if n := e.AutoMergeAll(); n != 1 {
		t.Fatalf("AutoMergeAll merged %d tables", n)
	}
	tbl, _ := e.Table("items")
	if tbl.ColdRows() != 150 {
		t.Fatal("auto-merge did not move rows")
	}
	// Below threshold: no-op.
	if n := e.AutoMergeAll(); n != 0 {
		t.Fatal("auto-merge should respect threshold")
	}
}

func TestEngine2PLMode(t *testing.T) {
	e, err := NewEngine(Options{Mode: Mode2PL, LockTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.CreateTable("items", testSchema())
	if e.Mode().String() != "2PL" {
		t.Fatal("mode")
	}
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(1, "a", 1)) })
	// Writer blocks readers under 2PL (unlike MVCC).
	t1 := e.Begin()
	if err := t1.Update("items", key(1), row(1, "a", 2)); err != nil {
		t.Fatal(err)
	}
	t2 := e.Begin()
	_, _, err = t2.Get("items", key(1))
	if !errors.Is(err, txn.ErrLockTimeout) {
		t.Fatalf("2PL read under write lock: %v", err)
	}
	t2.Abort()
	t1.Commit()
	// After release reads flow again.
	t3 := e.Begin()
	if _, ok, err := t3.Get("items", key(1)); err != nil || !ok {
		t.Fatalf("post-release read: %v %v", ok, err)
	}
	t3.Abort()
}

// TestWALRecovery: committed inserts, updates and deletes survive a
// restart of a Dir engine under the default group-commit mode, and an
// aborted transaction leaves no trace.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	e := openDirEngine(t, dir, Options{})
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(1, "a", 1)) })
	mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(2, "b", 2)) })
	mustExec(t, e, func(tx *Tx) error { return tx.Update("items", key(1), row(1, "a", 11)) })
	mustExec(t, e, func(tx *Tx) error { return tx.Delete("items", key(2)) })
	tx := e.Begin()
	tx.Insert("items", row(3, "c", 3))
	tx.Abort()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the engine rebuilds catalog and rows from the log.
	e2 := openDirEngine(t, dir, Options{})
	defer e2.Close()
	tx2 := e2.Begin()
	defer tx2.Abort()
	got, ok, _ := tx2.Get("items", key(1))
	if !ok || got[2].I != 11 {
		t.Fatalf("recovered row 1 = %v %v", got, ok)
	}
	if _, ok, _ := tx2.Get("items", key(2)); ok {
		t.Fatal("deleted row recovered")
	}
	if _, ok, _ := tx2.Get("items", key(3)); ok {
		t.Fatal("aborted row recovered")
	}
}

func TestMergeEmptyDelta(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Merge("items")
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 0 {
		t.Fatal("empty merge moved rows")
	}
	if _, err := e.Merge("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("merge missing table: %v", err)
	}
}
