package txn

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Errors returned by transaction operations.
var (
	// ErrConflict reports a write-write conflict under snapshot
	// isolation (first-updater-wins).
	ErrConflict = errors.New("txn: write-write conflict")
	// ErrFinished reports use of a committed or aborted transaction.
	ErrFinished = errors.New("txn: transaction already finished")
)

// Status is the lifecycle state of a transaction.
type Status int32

// Transaction states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int32(s))
	}
}

// Txn is a transaction under snapshot isolation. Reads see the snapshot
// at ReadTS plus the transaction's own writes; writes install versions
// stamped with ID, rewritten to the commit timestamp on commit.
//
// Storage layers register commit/abort hooks rather than the txn package
// knowing about storage: on Commit every onCommit hook runs with the
// freshly allocated commit timestamp; on Abort every onAbort hook runs.
type Txn struct {
	ID     uint64
	ReadTS uint64

	oracle   *Oracle
	status   atomic.Int32
	onCommit []func(commitTS uint64)
	onAbort  []func()
	// locks released at the end of the transaction (2PL mode).
	unlockers []func()
}

// Status returns the transaction state.
func (t *Txn) Status() Status { return Status(t.status.Load()) }

// OnCommit registers a hook to run with the commit timestamp. Hooks
// run while the oracle holds its commit lock, so they must be short and
// must not commit another transaction.
func (t *Txn) OnCommit(fn func(commitTS uint64)) { t.onCommit = append(t.onCommit, fn) }

// OnAbort registers a hook to undo a provisional write.
func (t *Txn) OnAbort(fn func()) { t.onAbort = append(t.onAbort, fn) }

// AddUnlocker registers a lock release to run at transaction end (commit
// or abort) — strict two-phase locking.
func (t *Txn) AddUnlocker(fn func()) { t.unlockers = append(t.unlockers, fn) }

// Commit finalizes the transaction: it takes the next commit
// timestamp, stamps every provisional write through the onCommit hooks,
// publishes the timestamp to new snapshots only once every hook has
// run (so no snapshot sees half a commit), releases locks, and
// unregisters from the oracle.
func (t *Txn) Commit() (uint64, error) {
	if !t.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitted)) {
		return 0, ErrFinished
	}
	ts := t.oracle.commit(func(ts uint64) {
		for _, fn := range t.onCommit {
			fn(ts)
		}
	})
	t.releaseLocks()
	t.oracle.finish(t.ID)
	return ts, nil
}

// Abort rolls back the transaction, undoing provisional writes.
func (t *Txn) Abort() error {
	if !t.status.CompareAndSwap(int32(StatusActive), int32(StatusAborted)) {
		return ErrFinished
	}
	// Undo in reverse order so later writes unwind first.
	for i := len(t.onAbort) - 1; i >= 0; i-- {
		t.onAbort[i]()
	}
	t.releaseLocks()
	t.oracle.finish(t.ID)
	return nil
}

func (t *Txn) releaseLocks() {
	for i := len(t.unlockers) - 1; i >= 0; i-- {
		t.unlockers[i]()
	}
	t.unlockers = nil
}

// VisibleBegin reports whether a version whose begin field is b is
// visible to a reader at snapshot readTS with transaction id self.
// A version is begin-visible if it was committed at or before the
// snapshot, or if the reader itself wrote it.
func VisibleBegin(b, readTS, self uint64) bool {
	if b == self {
		return true
	}
	return IsCommittedTS(b) && b <= readTS
}

// EndConceals reports whether a version whose end field is e is
// concealed (superseded/deleted) for a reader at snapshot readTS with
// transaction id self. The version is concealed if its end was committed
// at or before the snapshot, or if the reader itself ended it.
func EndConceals(e, readTS, self uint64) bool {
	if e == self {
		return true
	}
	return IsCommittedTS(e) && e <= readTS
}

// Visible combines both halves: a version (b, e) is visible iff its
// creation is visible and its end does not conceal it.
func Visible(b, e, readTS, self uint64) bool {
	return VisibleBegin(b, readTS, self) && !EndConceals(e, readTS, self)
}
