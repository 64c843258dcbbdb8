package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

func openDirEngine(t *testing.T, dir string, opts Options) *Engine {
	t.Helper()
	opts.Dir = dir
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scanIDs returns the sorted ids plus id->qty for every visible row.
func scanIDs(t *testing.T, e *Engine, table string) map[int64]int64 {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	out := make(map[int64]int64)
	_, err := tx.Scan(table, nil, nil, func(b *types.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			r := b.Row(i)
			out[r[0].I] = r[2].I
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := openDirEngine(t, dir, Options{Sync: SyncSync})
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, func(tx *Tx) error {
		for i := int64(0); i < 10; i++ {
			if err := tx.Insert("items", row(i, "a", i)); err != nil {
				return err
			}
		}
		return nil
	})
	mustExec(t, e, func(tx *Tx) error { return tx.Update("items", key(3), row(3, "a", 333)) })
	mustExec(t, e, func(tx *Tx) error { return tx.Delete("items", key(7)) })
	// An aborted transaction leaves no trace in the log.
	tx := e.Begin()
	if err := tx.Insert("items", row(50, "x", 50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: catalog comes from the CREATE TABLE log record, data from
	// replay — no pre-created tables.
	e2 := openDirEngine(t, dir, Options{Sync: SyncSync})
	defer e2.Close()
	got := scanIDs(t, e2, "items")
	if len(got) != 9 {
		t.Fatalf("recovered %d rows, want 9: %v", len(got), got)
	}
	if got[3] != 333 {
		t.Fatalf("update lost: qty[3] = %d", got[3])
	}
	if _, ok := got[7]; ok {
		t.Fatal("delete lost: id 7 still present")
	}
	if _, ok := got[50]; ok {
		t.Fatal("aborted insert recovered: id 50 present")
	}
	// And the recovered engine accepts new writes.
	mustExec(t, e2, func(tx *Tx) error { return tx.Insert("items", row(100, "b", 1)) })
}

// TestDirRestartTwiceLogStable is the regression for recovery
// re-appending replayed records: restarting twice must not grow the
// log.
func TestDirRestartTwiceLogStable(t *testing.T) {
	dir := t.TempDir()
	e := openDirEngine(t, dir, Options{Sync: SyncSync})
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(i, "a", i)) })
	}
	e.Close()

	count := func() int {
		recs, err := wal.ReadSegments(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	n0 := count()
	for restart := 1; restart <= 2; restart++ {
		e, err := NewEngine(Options{Dir: dir, Sync: SyncSync})
		if err != nil {
			t.Fatal(err)
		}
		if got := scanIDs(t, e, "items"); len(got) != 5 {
			t.Fatalf("restart %d: %d rows, want 5", restart, len(got))
		}
		e.Close()
		if n := count(); n != n0 {
			t.Fatalf("restart %d: log grew from %d to %d records (recovery re-appended)", restart, n0, n)
		}
	}
}

func TestDirCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the pre-checkpoint history spans several files.
	e := openDirEngine(t, dir, Options{Sync: SyncSync, WALSegmentSize: 256})
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(i, "a", i)) })
	}
	segsBefore := e.Log().Segments()
	if len(segsBefore) < 3 {
		t.Fatalf("want several segments before checkpoint, got %v", segsBefore)
	}
	ckptLSN, err := e.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ckptLSN == 0 {
		t.Fatal("checkpoint covered LSN 0")
	}
	segsAfter := e.Log().Segments()
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("checkpoint did not truncate: %d -> %d segments", len(segsBefore), len(segsAfter))
	}
	// Post-checkpoint commits land in the retained tail.
	for i := int64(20); i < 25; i++ {
		mustExec(t, e, func(tx *Tx) error { return tx.Insert("items", row(i, "a", i)) })
	}
	mustExec(t, e, func(tx *Tx) error { return tx.Update("items", key(2), row(2, "a", 222)) })
	e.Close()

	e2 := openDirEngine(t, dir, Options{Sync: SyncSync})
	defer e2.Close()
	got := scanIDs(t, e2, "items")
	if len(got) != 25 {
		t.Fatalf("recovered %d rows, want 25", len(got))
	}
	if got[2] != 222 || got[19] != 19 || got[24] != 24 {
		t.Fatalf("recovered state wrong: %v", got)
	}
	// A second checkpoint cycle on the recovered engine still works.
	if _, err := e2.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e2, func(tx *Tx) error { return tx.Insert("items", row(200, "c", 1)) })
}

// TestDirRecoverUnknownTable: a log record against a table that
// neither the checkpoint nor a CREATE_TABLE record defines is a
// structured error, not a silent skip. A Dir log carries its own
// catalog, so only a damaged log can reach this.
func TestDirRecoverUnknownTable(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.OpenLog(dir, wal.LogOptions{Mode: wal.SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(
		wal.Record{TxnID: 1, Kind: wal.KindInsert, Table: "ghost", Row: row(1, "a", 1)},
		wal.Record{TxnID: 1, Kind: wal.KindCommit},
	); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(Options{Dir: dir})
	if err == nil {
		e.Close()
		t.Fatal("recovery over a record for an undefined table succeeded")
	}
	if !errors.Is(err, ErrRecoverUnknownTable) {
		t.Fatalf("want ErrRecoverUnknownTable, got %v", err)
	}
	var re *RecoverError
	if !errors.As(err, &re) {
		t.Fatalf("want *RecoverError, got %T", err)
	}
	if re.Table != "ghost" || re.TxnID != 1 {
		t.Fatalf("RecoverError fields: %+v", re)
	}
}

// durWorkload drives a fixed single-committer workload against a
// Dir engine on the given filesystem: each commit i inserts the row
// pair (2i, 2i+1); a checkpoint runs after commit ckptAt. It returns
// the number of commits that were acknowledged (Commit returned nil)
// before the injected crash stopped progress.
func durWorkload(fs wal.FS, dir string, commits, ckptAt int) (acked int) {
	e, err := NewEngine(Options{Dir: dir, Sync: SyncSync, WALSegmentSize: 512, FS: fs})
	if err != nil {
		return 0
	}
	defer e.Close()
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		return 0
	}
	for i := 0; i < commits; i++ {
		tx := e.Begin()
		a, b := int64(2*i), int64(2*i+1)
		if tx.Insert("items", row(a, "a", int64(i))) != nil || tx.Insert("items", row(b, "b", int64(i))) != nil {
			tx.Abort()
			return acked
		}
		if _, err := tx.Commit(); err != nil {
			return acked
		}
		acked++
		if i == ckptAt {
			if _, err := e.Checkpoint(context.Background()); err != nil {
				return acked
			}
		}
	}
	return acked
}

// verifyPrefix reopens dir on the real filesystem and asserts the
// recovered state is a prefix of the commit order: exactly the row
// pairs of commits 1..k for some k >= acked, each pair complete.
func verifyPrefix(t *testing.T, dir string, acked, attempted int) {
	t.Helper()
	e, err := NewEngine(Options{Dir: dir, Sync: SyncSync})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer e.Close()
	if acked > 0 {
		if _, terr := e.Table("items"); terr != nil {
			t.Fatalf("acked %d commits but table missing: %v", acked, terr)
		}
	}
	if _, terr := e.Table("items"); terr != nil {
		return // nothing durable yet; empty state is a valid prefix
	}
	got := scanIDs(t, e, "items")
	if len(got)%2 != 0 {
		t.Fatalf("odd row count %d: some transaction applied partially: %v", len(got), got)
	}
	k := len(got) / 2
	if k < acked {
		t.Fatalf("acked %d commits but only %d recovered", acked, k)
	}
	if k > attempted {
		t.Fatalf("recovered %d commits, more than the %d attempted", k, attempted)
	}
	for i := 0; i < k; i++ {
		qa, oka := got[int64(2*i)]
		qb, okb := got[int64(2*i+1)]
		if !oka || !okb {
			t.Fatalf("commit %d not atomic after recovery: a=%v b=%v (recovered %d commits)", i, oka, okb, k)
		}
		if qa != int64(i) || qb != int64(i) {
			t.Fatalf("commit %d recovered wrong values: %d/%d", i, qa, qb)
		}
	}
}

// TestKillAndRecoverMatrix enumerates every filesystem operation the
// workload performs (via a recording run), then re-runs it crashing at
// each one — with several torn-tail leak variants for data-carrying
// ops — and asserts recovery always lands on a prefix-consistent state.
// This covers crashes mid-record-write, post-record/pre-fsync, mid
// checkpoint write/rename/retirement, and mid segment rotation.
func TestKillAndRecoverMatrix(t *testing.T) {
	const commits, ckptAt = 20, 9

	rec := wal.NewFaultFS(wal.OSFS{}, wal.Fault{})
	recDir := t.TempDir()
	if acked := durWorkload(rec, recDir, commits, ckptAt); acked != commits {
		t.Fatalf("recording run only acked %d/%d commits", acked, commits)
	}
	counts := rec.Counts()
	if counts[wal.FaultWrite] == 0 || counts[wal.FaultSync] == 0 || counts[wal.FaultCreate] == 0 || counts[wal.FaultRename] == 0 || counts[wal.FaultRemove] == 0 {
		t.Fatalf("workload does not exercise all op classes: %v", counts)
	}

	runs := 0
	for op, total := range counts {
		// Stride large op classes so the matrix stays fast while still
		// hitting early, middle, and late crash points.
		stride := 1
		if total > 24 {
			stride = total / 24
		}
		leaks := []int{0}
		if op == wal.FaultWrite || op == wal.FaultSync {
			// Data-carrying ops get torn-tail variants: nothing leaked,
			// everything pending leaked, and a mid-frame tear.
			leaks = []int{0, -1, 5}
		}
		for n := 1; n <= total; n += stride {
			for _, leak := range leaks {
				n, leak := n, leak
				t.Run(fmt.Sprintf("%v/n=%d/leak=%d", op, n, leak), func(t *testing.T) {
					dir := t.TempDir()
					ffs := wal.NewFaultFS(wal.OSFS{}, wal.Fault{Op: op, N: n, Leak: leak})
					acked := durWorkload(ffs, dir, commits, ckptAt)
					if !ffs.Crashed() {
						t.Fatalf("fault %v n=%d never fired", op, n)
					}
					verifyPrefix(t, dir, acked, commits)
				})
				runs++
			}
		}
	}
	t.Logf("kill-and-recover matrix: %d crash points exercised (op counts %v)", runs, counts)
}

// TestDirDurabilityFailurePoisonsEngine: once a commit has become
// visible in memory but its log write failed, the engine must stop
// serving — reads and commits fail with ErrPoisoned instead of exposing
// state that will not survive a restart.
func TestDirDurabilityFailurePoisonsEngine(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{}, wal.Fault{Op: wal.FaultSync, N: 4, Leak: 0})
	e, err := NewEngine(Options{Dir: dir, Sync: SyncSync, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	var commitErr error
	for i := int64(0); i < 100 && commitErr == nil; i++ {
		tx := e.Begin()
		if err := tx.Insert("items", row(i, "a", i)); err != nil {
			tx.Abort()
			commitErr = err
			break
		}
		_, commitErr = tx.Commit()
	}
	if commitErr == nil {
		t.Fatal("fault never fired")
	}
	if !ffs.Crashed() {
		t.Fatalf("workload failed before the fault: %v", commitErr)
	}
	if _, err := e.Table("items"); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Table after durability failure: want ErrPoisoned, got %v", err)
	}
	tx := e.Begin()
	if _, _, err := tx.Get("items", key(0)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Get after durability failure: want ErrPoisoned, got %v", err)
	}
	tx.Abort()
	tx2 := e.Begin()
	if _, err := tx2.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit after durability failure: want ErrPoisoned, got %v", err)
	}
	if _, err := e.CreateTable("other", testSchema()); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("CreateTable after durability failure: want ErrPoisoned, got %v", err)
	}
}

// TestCreateTableDoesNotBlockLookups: the catalog lock is released
// while CreateTable waits for its log record's fsync, so concurrent
// Table lookups proceed; duplicate names still conflict exactly once.
func TestCreateTableConcurrentDuplicate(t *testing.T) {
	dir := t.TempDir()
	e := openDirEngine(t, dir, Options{Sync: SyncGroup})
	defer e.Close()
	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.CreateTable("dup", testSchema())
		}(i)
	}
	wg.Wait()
	created := 0
	for _, err := range errs {
		switch {
		case err == nil:
			created++
		case errors.Is(err, ErrTableExists):
		default:
			t.Fatalf("unexpected CreateTable error: %v", err)
		}
	}
	if created != 1 {
		t.Fatalf("%d racers created the table, want exactly 1", created)
	}
	if _, err := e.Table("dup"); err != nil {
		t.Fatal(err)
	}
}

// TestDirConcurrentCommitCrash crashes a group-commit engine under 4
// concurrent committers: every acknowledged commit must survive
// recovery intact (atomic pairs), with no partially-applied ones.
func TestDirConcurrentCommitCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{}, wal.Fault{Op: wal.FaultSync, N: 6, Leak: -1})
	e, err := NewEngine(Options{Dir: dir, Sync: SyncGroup, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	const committers, per = 4, 20
	var mu sync.Mutex
	ackedIDs := make(map[int64]bool)
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := int64(g*per+i) * 2
				tx := e.Begin()
				if tx.Insert("items", row(id, "a", id)) != nil || tx.Insert("items", row(id+1, "b", id)) != nil {
					tx.Abort()
					return
				}
				if _, err := tx.Commit(); err != nil {
					return
				}
				mu.Lock()
				ackedIDs[id] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	e.Close()
	if !ffs.Crashed() {
		t.Skip("workload finished before the fault fired")
	}

	e2, err := NewEngine(Options{Dir: dir, Sync: SyncGroup})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer e2.Close()
	got := scanIDs(t, e2, "items")
	for id := range ackedIDs {
		if _, ok := got[id]; !ok {
			t.Fatalf("acked commit %d lost after crash", id)
		}
		if _, ok := got[id+1]; !ok {
			t.Fatalf("acked commit %d recovered partially", id)
		}
	}
	for id := range got {
		base := id &^ 1
		if _, ok := got[base]; !ok {
			t.Fatalf("row %d present without its pair %d", id, base)
		}
		if _, ok := got[base+1]; !ok {
			t.Fatalf("row %d present without its pair %d", id, base+1)
		}
	}
}

// TestDirGroupCommitAmortizesFsync: 16 concurrent committers through
// the engine share fsyncs (< 0.2 per commit).
func TestDirGroupCommitAmortizesFsync(t *testing.T) {
	dir := t.TempDir()
	e := openDirEngine(t, dir, Options{Sync: SyncGroup})
	defer e.Close()
	if _, err := e.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	startSyncs := e.Log().Stats().Syncs
	const committers, per = 16, 25
	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := int64(g*per + i)
				tx := e.Begin()
				if err := tx.Insert("items", row(id, "a", id)); err != nil {
					tx.Abort()
					errCh <- err
					return
				}
				if _, err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	syncs := e.Log().Stats().Syncs - startSyncs
	ratio := float64(syncs) / float64(committers*per)
	t.Logf("fsyncs=%d commits=%d ratio=%.3f", syncs, committers*per, ratio)
	if ratio >= 0.2 {
		t.Fatalf("fsyncs/commit = %.3f, want < 0.2", ratio)
	}
}
