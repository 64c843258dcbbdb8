package txn

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

func TestOracleBeginAssignsSnapshot(t *testing.T) {
	o := NewOracle()
	t1 := o.Begin()
	if t1.ReadTS != o.Now() {
		t.Fatalf("ReadTS = %d, Now = %d", t1.ReadTS, o.Now())
	}
	if t1.ID < TxnBase {
		t.Fatal("txn id must be in the txn range")
	}
	if o.ActiveCount() != 1 {
		t.Fatal("active count")
	}
	ts, err := t1.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ts <= t1.ReadTS {
		t.Fatal("commit TS must advance past the snapshot")
	}
	if o.ActiveCount() != 0 {
		t.Fatal("commit must unregister")
	}
}

func TestCommitAdvancesClock(t *testing.T) {
	o := NewOracle()
	before := o.Now()
	tx := o.Begin()
	ts, _ := tx.Commit()
	if o.Now() != ts || ts != before+1 {
		t.Fatalf("clock: before=%d ts=%d now=%d", before, ts, o.Now())
	}
}

func TestTxnHooks(t *testing.T) {
	o := NewOracle()
	tx := o.Begin()
	var got uint64
	tx.OnCommit(func(ts uint64) { got = ts })
	aborted := false
	tx.OnAbort(func() { aborted = true })
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got != ts {
		t.Fatal("OnCommit hook did not run with commit TS")
	}
	if aborted {
		t.Fatal("OnAbort must not run on commit")
	}
}

func TestTxnAbortRunsHooksInReverse(t *testing.T) {
	o := NewOracle()
	tx := o.Begin()
	var order []int
	tx.OnAbort(func() { order = append(order, 1) })
	tx.OnAbort(func() { order = append(order, 2) })
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("abort order = %v, want [2 1]", order)
	}
	if tx.Status() != StatusAborted {
		t.Fatal("status")
	}
}

func TestDoubleFinish(t *testing.T) {
	o := NewOracle()
	tx := o.Begin()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != ErrFinished {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); err != ErrFinished {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestWatermark(t *testing.T) {
	o := NewOracle()
	if o.Watermark() != o.Now() {
		t.Fatal("idle watermark should equal the clock")
	}
	t1 := o.Begin()
	w1 := t1.ReadTS
	// Advance the clock with other transactions.
	for i := 0; i < 5; i++ {
		tx := o.Begin()
		tx.Commit()
	}
	if o.Watermark() != w1 {
		t.Fatalf("watermark = %d, want oldest active %d", o.Watermark(), w1)
	}
	t1.Commit()
	if o.Watermark() != o.Now() {
		t.Fatal("watermark should catch up after oldest commits")
	}
}

func TestVisibilityRules(t *testing.T) {
	const self = TxnBase + 7
	const other = TxnBase + 8
	// Committed before snapshot, live: visible.
	if !Visible(5, InfTS, 10, self) {
		t.Error("committed live version should be visible")
	}
	// Committed after snapshot: invisible.
	if Visible(11, InfTS, 10, self) {
		t.Error("future version should be invisible")
	}
	// Own uncommitted write: visible.
	if !Visible(self, InfTS, 10, self) {
		t.Error("own write should be visible")
	}
	// Other's uncommitted write: invisible.
	if Visible(other, InfTS, 10, self) {
		t.Error("other txn's write should be invisible")
	}
	// Ended before snapshot: concealed.
	if Visible(5, 8, 10, self) {
		t.Error("version ended at 8 invisible at 10")
	}
	// Ended after snapshot: still visible.
	if !Visible(5, 12, 10, self) {
		t.Error("version ended at 12 visible at 10")
	}
	// Ended by self: concealed (we deleted it).
	if Visible(5, self, 10, self) {
		t.Error("own delete should conceal")
	}
	// Ended by other uncommitted txn: still visible to us.
	if !Visible(5, other, 10, self) {
		t.Error("other's uncommitted delete must not conceal")
	}
	// Aborted version: never visible.
	if Visible(AbortedTS, InfTS, 10, self) {
		t.Error("aborted version visible")
	}
}

func TestStatusString(t *testing.T) {
	if StatusActive.String() != "active" || StatusCommitted.String() != "committed" || StatusAborted.String() != "aborted" {
		t.Error("Status.String")
	}
}

func key(s string) types.Row { return types.Row{types.NewString(s)} }

func TestLockSharedConcurrentReaders(t *testing.T) {
	o := NewOracle()
	lm := NewLockManager(time.Second)
	t1, t2 := o.Begin(), o.Begin()
	if err := lm.LockShared(t1, "t", key("a")); err != nil {
		t.Fatal(err)
	}
	if err := lm.LockShared(t2, "t", key("a")); err != nil {
		t.Fatal("second reader must not block:", err)
	}
	t1.Commit()
	t2.Commit()
}

func TestLockExclusiveBlocksReaders(t *testing.T) {
	o := NewOracle()
	lm := NewLockManager(50 * time.Millisecond)
	t1, t2 := o.Begin(), o.Begin()
	if err := lm.LockExclusive(t1, "t", key("a")); err != nil {
		t.Fatal(err)
	}
	if err := lm.LockShared(t2, "t", key("a")); err != ErrLockTimeout {
		t.Fatalf("reader under writer: %v, want timeout", err)
	}
	t1.Commit() // releases
	t3 := o.Begin()
	if err := lm.LockShared(t3, "t", key("a")); err != nil {
		t.Fatal("lock must be free after commit:", err)
	}
	t2.Abort()
	t3.Commit()
}

func TestLockReleaseUnblocksWaiter(t *testing.T) {
	o := NewOracle()
	lm := NewLockManager(2 * time.Second)
	t1 := o.Begin()
	if err := lm.LockExclusive(t1, "t", key("a")); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		t2 := o.Begin()
		err := lm.LockExclusive(t2, "t", key("a"))
		t2.Commit()
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	t1.Commit()
	if err := <-got; err != nil {
		t.Fatalf("waiter should acquire after release: %v", err)
	}
}

func TestLockUpgrade(t *testing.T) {
	o := NewOracle()
	lm := NewLockManager(100 * time.Millisecond)
	t1 := o.Begin()
	if err := lm.LockShared(t1, "t", key("a")); err != nil {
		t.Fatal(err)
	}
	// Sole reader can upgrade.
	if err := lm.LockExclusive(t1, "t", key("a")); err != nil {
		t.Fatalf("upgrade failed: %v", err)
	}
	// Re-entrant exclusive is a no-op.
	if err := lm.LockExclusive(t1, "t", key("a")); err != nil {
		t.Fatal(err)
	}
	t1.Commit()
}

func TestLockDeadlockResolvedByTimeout(t *testing.T) {
	o := NewOracle()
	lm := NewLockManager(50 * time.Millisecond)
	t1, t2 := o.Begin(), o.Begin()
	lm.LockExclusive(t1, "t", key("a"))
	lm.LockExclusive(t2, "t", key("b"))
	var wg sync.WaitGroup
	var timeouts atomic.Int32
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := lm.LockExclusive(t1, "t", key("b")); err == ErrLockTimeout {
			timeouts.Add(1)
			t1.Abort()
		} else {
			t1.Commit()
		}
	}()
	go func() {
		defer wg.Done()
		if err := lm.LockExclusive(t2, "t", key("a")); err == ErrLockTimeout {
			timeouts.Add(1)
			t2.Abort()
		} else {
			t2.Commit()
		}
	}()
	wg.Wait()
	if timeouts.Load() == 0 {
		t.Fatal("deadlock should resolve via at least one timeout")
	}
}
