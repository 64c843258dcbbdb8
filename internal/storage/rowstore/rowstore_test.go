package rowstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "name", Type: types.String},
		{Name: "qty", Type: types.Int64},
	}, "id")
}

func row(id int64, name string, qty int64) types.Row {
	return types.Row{types.NewInt(id), types.NewString(name), types.NewInt(qty)}
}

func key(id int64) types.Row { return types.Row{types.NewInt(id)} }

func mustCommit(t *testing.T, tx *txn.Txn) uint64 {
	t.Helper()
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestNewRequiresKey(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "a", Type: types.Int64}})
	if _, err := New(s); err == nil {
		t.Fatal("schema without key should be rejected")
	}
}

func TestInsertGetCommit(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t1 := o.Begin()
	if err := s.Insert(t1, row(1, "a", 10)); err != nil {
		t.Fatal(err)
	}
	// Own write visible before commit.
	if got, ok := s.Get(t1, key(1)); !ok || got[1].S != "a" {
		t.Fatal("own uncommitted write must be visible")
	}
	// Other txn does not see it.
	t2 := o.Begin()
	if _, ok := s.Get(t2, key(1)); ok {
		t.Fatal("uncommitted write leaked")
	}
	mustCommit(t, t1)
	// t2's snapshot predates the commit: still invisible.
	if _, ok := s.Get(t2, key(1)); ok {
		t.Fatal("snapshot isolation violated: commit appeared mid-txn")
	}
	t2.Abort()
	// Fresh txn sees it.
	t3 := o.Begin()
	if got, ok := s.Get(t3, key(1)); !ok || got[2].I != 10 {
		t.Fatal("committed row invisible to new snapshot")
	}
	t3.Abort()
	if s.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d", s.LiveCount())
	}
}

func TestInsertDuplicate(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t1 := o.Begin()
	s.Insert(t1, row(1, "a", 1))
	mustCommit(t, t1)
	t2 := o.Begin()
	if err := s.Insert(t2, row(1, "b", 2)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want duplicate key", err)
	}
	t2.Abort()
	// Duplicate within the same transaction.
	t3 := o.Begin()
	s.Insert(t3, row(2, "x", 1))
	if err := s.Insert(t3, row(2, "y", 1)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("same-txn duplicate: %v", err)
	}
	t3.Abort()
}

func TestInsertConflictWithUncommitted(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t1 := o.Begin()
	s.Insert(t1, row(1, "a", 1))
	t2 := o.Begin()
	if err := s.Insert(t2, row(1, "b", 1)); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("insert over uncommitted insert: %v", err)
	}
	t1.Abort()
	t2.Abort()
	// After the abort a new transaction can insert the key.
	t3 := o.Begin()
	if err := s.Insert(t3, row(1, "c", 1)); err != nil {
		t.Fatalf("insert over aborted insert: %v", err)
	}
	mustCommit(t, t3)
	t4 := o.Begin()
	if got, ok := s.Get(t4, key(1)); !ok || got[1].S != "c" {
		t.Fatal("re-insert after abort not visible")
	}
	t4.Abort()
}

func TestUpdateVisibilityAndRollback(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t1 := o.Begin()
	s.Insert(t1, row(1, "a", 10))
	mustCommit(t, t1)

	t2 := o.Begin()
	if err := s.Update(t2, key(1), row(1, "a", 20)); err != nil {
		t.Fatal(err)
	}
	// t2 sees its own update; a concurrent reader sees the old value.
	if got, _ := s.Get(t2, key(1)); got[2].I != 20 {
		t.Fatal("own update invisible")
	}
	tr := o.Begin()
	if got, _ := s.Get(tr, key(1)); got[2].I != 10 {
		t.Fatal("reader saw uncommitted update")
	}
	t2.Abort()
	tr.Abort()
	// After abort the old value is back for everyone.
	t3 := o.Begin()
	if got, _ := s.Get(t3, key(1)); got[2].I != 10 {
		t.Fatal("abort did not restore old version")
	}
	// And the key is updatable again.
	if err := s.Update(t3, key(1), row(1, "a", 30)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t3)
	t4 := o.Begin()
	if got, _ := s.Get(t4, key(1)); got[2].I != 30 {
		t.Fatal("committed update invisible")
	}
	t4.Abort()
}

func TestUpdateKeyMismatch(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t1 := o.Begin()
	s.Insert(t1, row(1, "a", 1))
	mustCommit(t, t1)
	t2 := o.Begin()
	if err := s.Update(t2, key(1), row(2, "a", 1)); err == nil {
		t.Fatal("key-changing update must be rejected")
	}
	t2.Abort()
}

func TestWriteWriteConflict(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t0 := o.Begin()
	s.Insert(t0, row(1, "a", 1))
	mustCommit(t, t0)

	t1, t2 := o.Begin(), o.Begin()
	if err := s.Update(t1, key(1), row(1, "a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(t2, key(1), row(1, "a", 3)); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("second writer should conflict: %v", err)
	}
	mustCommit(t, t1)
	t2.Abort()
	// First-updater-wins even after commit: a txn with an old snapshot
	// must not overwrite a newer committed version.
	t3 := o.Begin()
	for i := 0; i < 1; i++ { // t3's snapshot is current; this should work
		if err := s.Update(t3, key(1), row(1, "a", 4)); err != nil {
			t.Fatal(err)
		}
	}
	t3.Abort()
}

func TestStaleSnapshotWriteConflicts(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t0 := o.Begin()
	s.Insert(t0, row(1, "a", 1))
	mustCommit(t, t0)

	stale := o.Begin() // snapshot before the next update
	t1 := o.Begin()
	s.Update(t1, key(1), row(1, "a", 2))
	mustCommit(t, t1)
	if err := s.Update(stale, key(1), row(1, "a", 99)); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("stale writer should conflict: %v", err)
	}
	stale.Abort()
}

func TestDeleteAndReinsert(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t0 := o.Begin()
	s.Insert(t0, row(1, "a", 1))
	mustCommit(t, t0)

	t1 := o.Begin()
	if err := s.Delete(t1, key(1)); err != nil {
		t.Fatal(err)
	}
	// Deleted for self, still visible to others.
	if _, ok := s.Get(t1, key(1)); ok {
		t.Fatal("own delete should hide the row")
	}
	tr := o.Begin()
	if _, ok := s.Get(tr, key(1)); !ok {
		t.Fatal("uncommitted delete leaked")
	}
	tr.Abort()
	mustCommit(t, t1)

	// Re-insert the key.
	t2 := o.Begin()
	if _, ok := s.Get(t2, key(1)); ok {
		t.Fatal("deleted row visible")
	}
	if err := s.Insert(t2, row(1, "b", 2)); err != nil {
		t.Fatalf("re-insert after delete: %v", err)
	}
	mustCommit(t, t2)
	t3 := o.Begin()
	if got, ok := s.Get(t3, key(1)); !ok || got[1].S != "b" {
		t.Fatal("re-inserted row wrong")
	}
	t3.Abort()
	// Double delete within one txn.
	t4 := o.Begin()
	if err := s.Delete(t4, key(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(t4, key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete in txn: %v", err)
	}
	t4.Abort()
}

func TestDeleteMissing(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t1 := o.Begin()
	if err := s.Delete(t1, key(42)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	t1.Abort()
}

func TestScanVisibilityAndOrder(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t0 := o.Begin()
	for _, id := range []int64{5, 1, 3, 2, 4} {
		s.Insert(t0, row(id, fmt.Sprint(id), id*10))
	}
	mustCommit(t, t0)
	t1 := o.Begin()
	s.Delete(t1, key(3))
	s.Insert(t1, row(6, "six", 60))
	mustCommit(t, t1)

	t2 := o.Begin()
	var ids []int64
	s.Scan(t2.ReadTS, t2.ID, func(r types.Row) bool {
		ids = append(ids, r[0].I)
		return true
	})
	want := []int64{1, 2, 4, 5, 6}
	if len(ids) != len(want) {
		t.Fatalf("scan = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("scan = %v, want %v", ids, want)
		}
	}
	// Range scan.
	ids = ids[:0]
	s.ScanRange(key(2), key(5), t2.ReadTS, t2.ID, func(r types.Row) bool {
		ids = append(ids, r[0].I)
		return true
	})
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 4 {
		t.Fatalf("range scan = %v", ids)
	}
	t2.Abort()
}

func TestTimeTravelSnapshots(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t0 := o.Begin()
	s.Insert(t0, row(1, "v1", 1))
	ts1 := mustCommit(t, t0)
	t1 := o.Begin()
	s.Update(t1, key(1), row(1, "v2", 2))
	ts2 := mustCommit(t, t1)

	if got, ok := s.GetAt(key(1), ts1, 0); !ok || got[1].S != "v1" {
		t.Fatal("snapshot at ts1 should see v1")
	}
	if got, ok := s.GetAt(key(1), ts2, 0); !ok || got[1].S != "v2" {
		t.Fatal("snapshot at ts2 should see v2")
	}
	if _, ok := s.GetAt(key(1), ts1-1, 0); ok {
		t.Fatal("snapshot before insert should see nothing")
	}
}

func TestCollectAtAndTruncateMerged(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t0 := o.Begin()
	for id := int64(1); id <= 4; id++ {
		s.Insert(t0, row(id, "x", id))
	}
	mergeTS := mustCommit(t, t0)
	// Post-merge writes.
	t1 := o.Begin()
	s.Update(t1, key(2), row(2, "y", 22))
	s.Insert(t1, row(5, "z", 5))
	afterTS := mustCommit(t, t1)

	rows := s.CollectAt(mergeTS)
	if len(rows) != 4 {
		t.Fatalf("CollectAt(mergeTS) = %d rows", len(rows))
	}
	vrows, begins := s.CollectVersionsAt(mergeTS)
	if len(vrows) != 4 || len(begins) != 4 {
		t.Fatalf("CollectVersionsAt = %d rows, %d begins", len(vrows), len(begins))
	}
	for _, b := range begins {
		if b != mergeTS {
			t.Fatalf("begin = %d, want %d", b, mergeTS)
		}
	}
	s.TruncateMerged(mergeTS, o.Watermark())
	// Rows committed before mergeTS are gone from the row store...
	t2 := o.Begin()
	if _, ok := s.Get(t2, key(1)); ok {
		t.Fatal("merged row should be truncated from the delta")
	}
	// ...but post-merge versions survive.
	if got, ok := s.Get(t2, key(2)); !ok || got[2].I != 22 {
		t.Fatal("post-merge update lost")
	}
	if _, ok := s.Get(t2, key(5)); !ok {
		t.Fatal("post-merge insert lost")
	}
	t2.Abort()
	_ = afterTS
	if s.LiveCount() != 2 {
		t.Fatalf("LiveCount after truncate = %d, want 2", s.LiveCount())
	}
}

func TestConcurrentInsertersDistinctKeys(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	var wg sync.WaitGroup
	const G, N = 8, 500
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				tx := o.Begin()
				if err := s.Insert(tx, row(int64(g*N+i), "w", 1)); err != nil {
					t.Errorf("insert: %v", err)
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(g)
	}
	wg.Wait()
	if s.LiveCount() != G*N {
		t.Fatalf("LiveCount = %d, want %d", s.LiveCount(), G*N)
	}
}

func TestConcurrentWritersSameKeyExactlyOneWins(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t0 := o.Begin()
	s.Insert(t0, row(1, "a", 0))
	mustCommit(t, t0)
	const G = 16
	// All transactions take their snapshot before any of them writes, so
	// they are genuinely concurrent and exactly one may commit.
	txs := make([]*txn.Txn, G)
	for g := range txs {
		txs[g] = o.Begin()
	}
	var wins int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			tx := txs[g]
			if err := s.Update(tx, key(1), row(1, "a", int64(g))); err != nil {
				tx.Abort()
				return
			}
			if _, err := tx.Commit(); err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if wins != 1 {
		t.Fatalf("exactly one concurrent writer must win, got %d", wins)
	}
}

func TestConcurrentReadersSeeConsistentSnapshot(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	// Two rows whose qty always sums to 100 in every committed state.
	t0 := o.Begin()
	s.Insert(t0, row(1, "a", 50))
	s.Insert(t0, row(2, "b", 50))
	mustCommit(t, t0)
	stop := make(chan struct{})
	var writerWG, wg sync.WaitGroup
	writerWG.Add(1)
	go func() { // writer: moves qty between the rows transactionally
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := o.Begin()
			d := int64(rng.Intn(10))
			r1, ok1 := s.Get(tx, key(1))
			r2, ok2 := s.Get(tx, key(2))
			if !ok1 || !ok2 {
				tx.Abort()
				continue
			}
			e1 := s.Update(tx, key(1), row(1, "a", r1[2].I-d))
			e2 := s.Update(tx, key(2), row(2, "b", r2[2].I+d))
			if e1 != nil || e2 != nil {
				tx.Abort()
				continue
			}
			tx.Commit()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tx := o.Begin()
				r1, ok1 := s.Get(tx, key(1))
				r2, ok2 := s.Get(tx, key(2))
				tx.Abort()
				if !ok1 || !ok2 {
					t.Error("reader lost a row")
					return
				}
				if r1[2].I+r2[2].I != 100 {
					t.Errorf("invariant broken: %d + %d", r1[2].I, r2[2].I)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}

// TestReaderMidCommitSeesNeitherWrite pauses a committer between the
// stamps of its two writes and begins a reader there: snapshot
// isolation requires the reader to see neither write, never one half of
// the transfer.
func TestReaderMidCommitSeesNeitherWrite(t *testing.T) {
	o := txn.NewOracle()
	s, _ := New(testSchema())
	t0 := o.Begin()
	s.Insert(t0, row(1, "a", 50))
	s.Insert(t0, row(2, "b", 50))
	mustCommit(t, t0)

	tx := o.Begin()
	if err := s.Update(tx, key(1), row(1, "a", 40)); err != nil {
		t.Fatal(err)
	}
	paused, resume := make(chan struct{}), make(chan struct{})
	tx.OnCommit(func(uint64) { // runs after the first write's stamp
		close(paused)
		<-resume
	})
	if err := s.Update(tx, key(2), row(2, "b", 60)); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() {
		_, err := tx.Commit()
		committed <- err
	}()
	<-paused
	mid := o.Begin()
	r1, ok1 := s.Get(mid, key(1))
	r2, ok2 := s.Get(mid, key(2))
	close(resume)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if !ok1 || !ok2 || r1[2].I != 50 || r2[2].I != 50 {
		t.Fatalf("reader begun mid-commit saw %v + %v, want 50 + 50", r1, r2)
	}
	mid.Abort()

	after := o.Begin()
	defer after.Abort()
	r1, _ = s.Get(after, key(1))
	r2, _ = s.Get(after, key(2))
	if r1[2].I != 40 || r2[2].I != 60 {
		t.Fatalf("reader after commit saw %v + %v, want 40 + 60", r1, r2)
	}
}
