package db

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/types"
)

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func mustExec(t *testing.T, d *DB, q string, args ...any) Result {
	t.Helper()
	res, err := d.Exec(context.Background(), q, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func setupItems(t *testing.T, d *DB) {
	t.Helper()
	mustExec(t, d, `CREATE TABLE items (id BIGINT, cat VARCHAR, qty BIGINT, price DOUBLE, PRIMARY KEY (id))`)
	mustExec(t, d, `INSERT INTO items VALUES
		(1, 'fruit', 10, 1.5),
		(2, 'fruit', 20, 2.5),
		(3, 'veg', 30, 0.5),
		(4, 'veg', 40, 1.0),
		(5, 'meat', 50, 9.0)`)
}

func TestQueryRowScan(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	var n int64
	var total float64
	err := d.QueryRow(context.Background(),
		`SELECT COUNT(*), SUM(qty * price) FROM items`).Scan(&n, &total)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || total != 10*1.5+20*2.5+30*0.5+40*1.0+50*9.0 {
		t.Fatalf("n=%d total=%v", n, total)
	}
}

func TestQueryStreamsRows(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	rows, err := d.Query(context.Background(), `SELECT id, cat, qty FROM items ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 3 || got[1] != "cat" {
		t.Fatalf("columns = %v", got)
	}
	var ids []int64
	for rows.Next() {
		var id, qty int64
		var cat string
		if err := rows.Scan(&id, &cat, &qty); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 || ids[0] != 1 || ids[4] != 5 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestQueryNextBatchVectorized(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	rows, err := d.Query(context.Background(), `SELECT qty FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var sum int64
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		col := b.Cols[0]
		for i := 0; i < b.Len(); i++ {
			sum += col.Ints[b.RowIdx(i)]
		}
	}
	if sum != 150 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestPreparedSelectPlansOnce(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	stmt, err := d.Prepare(context.Background(), `SELECT id FROM items WHERE qty > ? ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	base := d.Stats().PlansCompiled
	for i := 0; i < 20; i++ {
		rows, err := stmt.Query(context.Background(), int64(10*i%50))
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().PlansCompiled; got != base {
		t.Fatalf("prepared SELECT recompiled: %d plans after 20 executions (had %d)", got, base)
	}
}

func TestPreparedRebinding(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	// Merge so the parameter-valued predicate exercises the pushed-down
	// column-store path, not just the delta.
	mustExec(t, d, `MERGE TABLE items`)
	stmt, err := d.Prepare(context.Background(), `SELECT COUNT(*) FROM items WHERE cat = ?`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"fruit": 2, "veg": 2, "meat": 1, "nope": 0}
	for cat, n := range want {
		for round := 0; round < 3; round++ {
			var got int64
			if err := stmt.QueryRow(context.Background(), cat).Scan(&got); err != nil {
				t.Fatal(err)
			}
			if got != n {
				t.Fatalf("cat %q round %d: got %d want %d", cat, round, got, n)
			}
		}
	}
	// Param type mismatch against the column is a typed error.
	_, err = stmt.Query(context.Background(), int64(7))
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want ErrTypeMismatch, got %v", err)
	}
}

func TestPreparedInsertRebinding(t *testing.T) {
	d := openTest(t, Options{})
	mustExec(t, d, `CREATE TABLE kv (k BIGINT, v VARCHAR, PRIMARY KEY (k))`)
	stmt, err := d.Prepare(context.Background(), `INSERT INTO kv VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := stmt.Exec(context.Background(), int64(i), fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("affected = %d", res.RowsAffected)
		}
	}
	var n int64
	if err := d.QueryRow(context.Background(), `SELECT COUNT(*) FROM kv`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("count = %d", n)
	}
	var v string
	if err := d.QueryRow(context.Background(), `SELECT v FROM kv WHERE k = ?`, 7).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v != "v7" {
		t.Fatalf("v = %q", v)
	}
}

func TestPlanCacheAdHocHits(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	const q = `SELECT COUNT(*) FROM items WHERE qty >= ?`
	for i := 0; i < 5; i++ {
		var n int64
		if err := d.QueryRow(context.Background(), q, 0).Scan(&n); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.PlanCacheHits < 4 {
		t.Fatalf("stats = %+v, want >= 4 hits", st)
	}
}

func TestTransactionVisibility(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	ctx := context.Background()

	tx, err := d.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `UPDATE items SET qty = ? WHERE id = ?`, 999, 1); err != nil {
		t.Fatal(err)
	}
	// The writer sees its own write.
	var qty int64
	if err := tx.QueryRow(ctx, `SELECT qty FROM items WHERE id = 1`).Scan(&qty); err != nil {
		t.Fatal(err)
	}
	if qty != 999 {
		t.Fatalf("own write invisible: qty = %d", qty)
	}
	// A concurrent auto-commit reader does not.
	if err := d.QueryRow(ctx, `SELECT qty FROM items WHERE id = 1`).Scan(&qty); err != nil {
		t.Fatal(err)
	}
	if qty != 10 {
		t.Fatalf("dirty read: qty = %d", qty)
	}
	// ROLLBACK restores.
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := d.QueryRow(ctx, `SELECT qty FROM items WHERE id = 1`).Scan(&qty); err != nil {
		t.Fatal(err)
	}
	if qty != 10 {
		t.Fatalf("rollback failed: qty = %d", qty)
	}
	// COMMIT publishes.
	tx2, err := d.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(ctx, `UPDATE items SET qty = ? WHERE id = ?`, 111, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.QueryRow(ctx, `SELECT qty FROM items WHERE id = 1`).Scan(&qty); err != nil {
		t.Fatal(err)
	}
	if qty != 111 {
		t.Fatalf("commit not visible: qty = %d", qty)
	}
	// Finished transactions refuse further work.
	if _, err := tx2.Exec(ctx, `SELECT 1`); !errors.Is(err, ErrTxDone) {
		t.Fatalf("want ErrTxDone, got %v", err)
	}
}

// loadBig creates table big with n rows and merges it into the column
// store through the low-level engine API (bulk load).
func loadBig(t *testing.T, d *DB, n int) {
	t.Helper()
	mustExec(t, d, `CREATE TABLE big (id BIGINT, grp BIGINT, val DOUBLE, PRIMARY KEY (id))`)
	eng := d.Engine()
	tx := eng.Begin()
	for i := 0; i < n; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97)), types.NewFloat(float64(i))}
		if err := tx.Insert("big", row); err != nil {
			t.Fatal(err)
		}
		if (i+1)%5000 == 0 {
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx = eng.Begin()
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Merge("big"); err != nil {
		t.Fatal(err)
	}
}

func TestRowsCloseMidStreamReleasesScan(t *testing.T) {
	d := openTest(t, Options{})
	loadBig(t, d, 30_000)
	rows, err := d.Query(context.Background(), `SELECT id, val FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	// Read one batch, then abandon the cursor.
	if _, err := rows.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed cursor serves nothing, even with unread rows buffered.
	if rows.Next() {
		t.Fatal("Next returned true after Close")
	}
	// The scan's storage latch must be released: a merge (which takes
	// it exclusively) completes instead of deadlocking.
	merged := make(chan error, 1)
	go func() {
		_, err := d.Engine().Merge("big")
		merged <- err
	}()
	select {
	case err := <-merged:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("merge blocked after mid-stream Rows.Close: scan latch leaked")
	}
}

func TestQueryCtxCancelParallelScan(t *testing.T) {
	d := openTest(t, Options{Parallelism: 4})
	loadBig(t, d, 60_000)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := d.Query(ctx, `SELECT id, grp, val FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.NextBatch(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Within one batch boundary the cursor surfaces context.Canceled.
	sawErr := false
	for i := 0; i < 3; i++ {
		if _, err := rows.NextBatch(); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("cancellation not observed within a batch boundary")
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("rows.Err() = %v", rows.Err())
	}
	rows.Close()

	// All morsel workers and the scan producer must exit.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancel: before=%d now=%d", before, runtime.NumGoroutine())
}

func TestCoerceTypeMismatchTypedError(t *testing.T) {
	d := openTest(t, Options{})
	mustExec(t, d, `CREATE TABLE t (a BIGINT, b DOUBLE, PRIMARY KEY (a))`)
	// String literal into a BIGINT column: typed error, not a bogus row.
	_, err := d.Exec(context.Background(), `INSERT INTO t VALUES ('oops', 1.0)`)
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("INSERT: want ErrTypeMismatch, got %v", err)
	}
	// Same through UPDATE SET.
	mustExec(t, d, `INSERT INTO t VALUES (1, 1.0)`)
	_, err = d.Exec(context.Background(), `UPDATE t SET b = 'nope' WHERE a = 1`)
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("UPDATE: want ErrTypeMismatch, got %v", err)
	}
	// Numeric cross-assignment still coerces.
	mustExec(t, d, `INSERT INTO t VALUES (2, 3)`) // int literal into DOUBLE
	var b float64
	if err := d.QueryRow(context.Background(), `SELECT b FROM t WHERE a = 2`).Scan(&b); err != nil {
		t.Fatal(err)
	}
	if b != 3.0 {
		t.Fatalf("b = %v", b)
	}
}

// TestSumAvgOverVarcharRejected: SUM and AVG need a numeric argument.
// Over VARCHAR the statement fails at plan time with a typed error, in
// the global and the grouped form; MIN, MAX and COUNT stay valid.
func TestSumAvgOverVarcharRejected(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	for _, q := range []string{
		`SELECT SUM(cat), AVG(cat) FROM items`,
		`SELECT AVG(cat) FROM items`,
		`SELECT cat, SUM(cat) FROM items GROUP BY cat`,
		`SELECT id, AVG(cat) FROM items GROUP BY id`,
	} {
		rows, err := d.Query(context.Background(), q)
		if err == nil {
			rows.Close()
		}
		if !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("%s: want ErrTypeMismatch, got %v", q, err)
		}
	}
	var lo, hi string
	var n int64
	if err := d.QueryRow(context.Background(), `SELECT MIN(cat), MAX(cat), COUNT(cat) FROM items`).Scan(&lo, &hi, &n); err != nil {
		t.Fatal(err)
	}
	if lo != "fruit" || hi != "veg" || n != 5 {
		t.Fatalf("MIN/MAX/COUNT(cat) = %q %q %d", lo, hi, n)
	}
}

func TestCloseIdempotentWithAutoMerge(t *testing.T) {
	d, err := Open(Options{AutoMergeEvery: time.Millisecond, MergeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, d, `CREATE TABLE t (a BIGINT, PRIMARY KEY (a))`)
	for i := 0; i < 10; i++ {
		mustExec(t, d, `INSERT INTO t VALUES (?)`, i)
	}
	time.Sleep(5 * time.Millisecond) // let the daemon run at least once
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := d.Exec(context.Background(), `SELECT 1`); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestParamRejectedWhereTypeIsBaked(t *testing.T) {
	// Output types of select items, GROUP BY keys, and aggregate
	// arguments are fixed at plan time; an unbound `?` there would
	// silently truncate a later float binding, so it must be rejected.
	d := openTest(t, Options{})
	setupItems(t, d)
	ctx := context.Background()
	for _, q := range []string{
		`SELECT ? FROM items`,
		`SELECT qty * ? FROM items`,
		`SELECT cat, COUNT(*) FROM items GROUP BY cat, ?`,
		`SELECT SUM(qty * ?) FROM items`,
	} {
		if _, err := d.Query(ctx, q, 1.5); err == nil {
			t.Errorf("%s: want plan-time rejection, got success", q)
		}
	}
	// In comparisons the float value is applied exactly, not truncated.
	var n int64
	if err := d.QueryRow(ctx, `SELECT COUNT(*) FROM items WHERE qty * ? > 30`, 1.5).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 3 { // 30*1.5, 40*1.5, 50*1.5 exceed 30; 20*1.5=30 does not
		t.Fatalf("float param comparison: n = %d", n)
	}
}

func TestQueryErrors(t *testing.T) {
	d := openTest(t, Options{})
	setupItems(t, d)
	ctx := context.Background()
	if _, err := d.Query(ctx, `INSERT INTO items VALUES (9, 'x', 1, 1.0)`); err == nil {
		t.Fatal("Query of INSERT should fail")
	}
	if _, err := d.Query(ctx, `SELECT nope FROM items`); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := d.Query(ctx, `SELECT id FROM items WHERE qty > ?`); err == nil {
		t.Fatal("missing argument should fail")
	}
	if _, err := d.Query(ctx, `SELECT id FROM items`, 1); err == nil {
		t.Fatal("extra argument should fail")
	}
	if err := d.QueryRow(ctx, `SELECT id FROM items WHERE id = 42`).Scan(new(int64)); !errors.Is(err, ErrNoRows) {
		t.Fatalf("want ErrNoRows, got %v", err)
	}
	// A SELECT through Exec is executed and discarded.
	if _, err := d.Exec(ctx, `SELECT COUNT(*) FROM items`); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedStmtInTx(t *testing.T) {
	d := openTest(t, Options{})
	mustExec(t, d, `CREATE TABLE ev (id BIGINT, v BIGINT, PRIMARY KEY (id))`)
	ctx := context.Background()
	ins, err := d.Prepare(ctx, `INSERT INTO ev VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	txIns := tx.Stmt(ins)
	for i := 0; i < 100; i++ {
		if _, err := txIns.Exec(ctx, i, i*i); err != nil {
			t.Fatal(err)
		}
	}
	// Uncommitted writes are invisible outside the transaction.
	var n int64
	if err := d.QueryRow(ctx, `SELECT COUNT(*) FROM ev`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("dirty read: %d", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.QueryRow(ctx, `SELECT COUNT(*) FROM ev`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("count = %d", n)
	}
}
