// Package db is the public front door to the oadms engine: a
// context-aware, prepared-statement-capable API over the dual-format
// (delta row store + compressed column store) storage and the
// vectorized execution pipeline.
//
// The design mirrors database/sql where that helps familiarity —
// Open/Close, Exec/Query/QueryRow, Prepare, Begin — with one deliberate
// departure: Rows exposes the vectorized result stream directly via
// NextBatch, so analytic consumers can keep column batches end-to-end
// instead of paying a per-row materialization. Row-at-a-time
// Next/Scan remains available for OLTP-style access.
//
// Every statement entry point takes a context.Context. Cancellation
// propagates through the operator tree into the storage scans: a
// cancelled analytic query stops within one batch boundary, its morsel
// workers exit, and Rows surfaces ctx.Err().
//
// Statements may contain `?` placeholders (positional). Prepared
// statements compile their plan once and rebind arguments per
// execution; ad-hoc Exec/Query calls share the same machinery through
// a plan cache keyed by statement text, so repeating an ad-hoc
// statement also skips the parser and planner.
package db

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/types"
)

// Mode selects the engine's concurrency-control mechanism.
type Mode = core.ConcurrencyMode

// Concurrency modes.
const (
	// MVCC is snapshot isolation via multiversioning (default):
	// analytic readers never block writers.
	MVCC = core.ModeMVCC
	// TwoPL is strict two-phase locking, the classical baseline.
	TwoPL = core.Mode2PL
)

// SyncMode selects the WAL durability discipline for Dir-backed
// databases.
type SyncMode = core.SyncMode

// Durability modes.
const (
	// SyncGroup (default): commits wait until durable; a dedicated
	// flusher batches all concurrently queued commit groups per fsync,
	// accumulating for GroupCommitWindow.
	SyncGroup = core.SyncGroup
	// SyncSync: commits wait until durable with no accumulation window
	// (groups still batch naturally while an fsync is in flight).
	SyncSync = core.SyncSync
	// SyncAsync: commits return once enqueued; durability is deferred to
	// rotation, checkpoint, or close.
	SyncAsync = core.SyncAsync
	// SyncEach: one inline fsync per commit (the classical convoy;
	// baseline for benchmarks).
	SyncEach = core.SyncEach
)

// Options configures Open.
type Options struct {
	// Mode selects MVCC (default) or TwoPL.
	Mode Mode
	// LockTimeout bounds 2PL lock waits (default 100ms).
	LockTimeout time.Duration
	// Dir, when set, makes the database durable: a segmented
	// group-commit WAL and checkpoint files live in this directory, and
	// Open on an existing directory recovers the previous state (last
	// checkpoint plus WAL tail, tolerating a torn tail from a crash).
	Dir string
	// Sync selects the commit durability mode for Dir (default
	// SyncGroup).
	Sync SyncMode
	// GroupCommitWindow is SyncGroup's fsync accumulation window
	// (default 200µs).
	GroupCommitWindow time.Duration
	// WALSegmentSize is the WAL segment rotation threshold for Dir
	// (default 16 MiB).
	WALSegmentSize int64
	// MergeThreshold is the delta live-row count that triggers an
	// automatic merge (default 64k rows).
	MergeThreshold int
	// Parallelism is the worker count for analytic column-store scans
	// and the parallel operator pipelines above them (filter, partial
	// aggregation, join build, sort runs all execute on the morsel
	// workers). <= 0 defaults to runtime.GOMAXPROCS(0) — use every
	// core; set 1 explicitly to force single-threaded execution.
	Parallelism int
	// AutoMergeEvery, when > 0, starts a background delta-merge daemon
	// with this interval. Close stops and awaits it.
	AutoMergeEvery time.Duration
	// PlanCacheSize caps the number of statement texts whose plans are
	// cached (default 64; negative disables the cache).
	PlanCacheSize int
}

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("db: database is closed")

// ErrNoRows is returned by Row.Scan when the query matched nothing.
var ErrNoRows = errors.New("db: no rows in result set")

// ErrTypeMismatch is wrapped by errors from values that do not fit
// their target column or comparison (see errors.Is).
var ErrTypeMismatch = sql.ErrTypeMismatch

// ErrPoisoned is wrapped by every error from a database that suffered a
// durability failure after a commit became visible: the in-memory state
// is ahead of the durable log, so the engine refuses all further work
// (reads included). Restart the process to recover the durable prefix.
var ErrPoisoned = core.ErrPoisoned

// DB is a handle to one engine instance. It is safe for concurrent use
// by multiple goroutines.
type DB struct {
	engine    *core.Engine
	cache     *planCache
	closed    chan struct{} // closed by Close
	closeOnce sync.Once
}

// Open creates an engine and returns the database handle.
func Open(opts Options) (*DB, error) {
	eng, err := core.NewEngine(core.Options{
		Mode:              opts.Mode,
		LockTimeout:       opts.LockTimeout,
		Dir:               opts.Dir,
		Sync:              opts.Sync,
		GroupCommitWindow: opts.GroupCommitWindow,
		WALSegmentSize:    opts.WALSegmentSize,
		MergeThreshold:    opts.MergeThreshold,
		Parallelism:       opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	size := opts.PlanCacheSize
	if size == 0 {
		size = 64
	}
	d := &DB{engine: eng, cache: newPlanCache(size), closed: make(chan struct{})}
	if opts.AutoMergeEvery > 0 {
		eng.StartAutoMerge(opts.AutoMergeEvery)
	}
	return d, nil
}

// Close shuts the database down: it stops the auto-merge daemon and
// closes the WAL. Close is idempotent. Open cursors and transactions
// become invalid.
func (d *DB) Close() error {
	d.closeOnce.Do(func() { close(d.closed) })
	return d.engine.Close()
}

// Engine exposes the underlying engine for callers that need to step
// below SQL (bulk loaders, benchmarks, table statistics). The db API
// and direct engine transactions share one MVCC timestamp space, so
// mixing them is safe.
func (d *DB) Engine() *core.Engine { return d.engine }

func (d *DB) isClosed() bool {
	select {
	case <-d.closed:
		return true
	default:
		return false
	}
}

// Result reports what a non-query statement did.
type Result struct {
	// RowsAffected counts rows written by INSERT/UPDATE/DELETE.
	RowsAffected int
}

// stmtFor resolves query through the plan cache into a statement
// handle (the shared execution plumbing lives on Stmt).
func (d *DB) stmtFor(query string) (*Stmt, error) {
	if d.isClosed() {
		return nil, ErrClosed
	}
	plan, err := d.cache.lookup(d.engine, query)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: d, plan: plan, text: query}, nil
}

// Exec executes a statement that returns no rows (DDL or DML; a SELECT
// is executed and its rows discarded). Placeholders bind to args in
// order. Outside a transaction the statement auto-commits.
func (d *DB) Exec(ctx context.Context, query string, args ...any) (Result, error) {
	s, err := d.stmtFor(query)
	if err != nil {
		return Result{}, err
	}
	return s.exec(ctx, nil, args)
}

// Query executes a SELECT and returns a streaming cursor. The caller
// MUST Close the returned Rows (or drain it to the end): the cursor
// holds the query's snapshot transaction and the scan's resources
// until then. Cancelling ctx aborts the query within one batch
// boundary.
func (d *DB) Query(ctx context.Context, query string, args ...any) (*Rows, error) {
	s, err := d.stmtFor(query)
	if err != nil {
		return nil, err
	}
	return s.query(ctx, nil, args)
}

// QueryRow executes a SELECT expected to return at most one row. Errors
// are deferred to Row.Scan.
func (d *DB) QueryRow(ctx context.Context, query string, args ...any) *Row {
	rows, err := d.Query(ctx, query, args...)
	return &Row{rows: rows, err: err}
}

// Prepare parses and plans a statement once for repeated execution.
// The prepared statement shares the DB's plan cache, so preparing the
// same text twice reuses the compiled plan.
func (d *DB) Prepare(ctx context.Context, query string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := d.stmtFor(query)
	if err != nil {
		return nil, err
	}
	// Compile (or reuse) one instance eagerly so Prepare surfaces
	// planning errors and Stmt executions start hot.
	inst, err := s.plan.acquire(d.engine)
	if err != nil {
		return nil, err
	}
	s.plan.release(inst)
	return s, nil
}

// Begin starts an explicit transaction.
func (d *DB) Begin(ctx context.Context) (*Tx, error) {
	if d.isClosed() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Tx{db: d, tx: d.engine.Begin()}, nil
}

// Checkpoint snapshots every table at one consistent MVCC timestamp
// into a checkpoint file and truncates WAL segments wholly below the
// covered LSN, bounding recovery time and log size. It requires a
// Dir-backed database. Commits proceed concurrently; a cancelled ctx
// stops the snapshot scan at a zone boundary and abandons the temp
// file, leaving the published checkpoint set untouched.
func (d *DB) Checkpoint(ctx context.Context) (uint64, error) {
	if d.isClosed() {
		return 0, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return d.engine.Checkpoint(ctx)
}

// Workload partitions statements into the server's priority lanes:
// short latency-critical OLTP work vs long throughput-oriented OLAP
// work. See sql.ClassifyStmt for the classification rules.
type Workload = sql.Workload

// Workload classes.
const (
	// WorkloadOLTP: DML, DDL, and filtered single-table lookups.
	WorkloadOLTP = sql.WorkloadOLTP
	// WorkloadOLAP: joins, aggregates, sorts, unpredicated scans, and
	// delta merges.
	WorkloadOLAP = sql.WorkloadOLAP
)

// Classify reports which workload class query belongs to, parsing it
// through the plan cache (a cached text classifies without a parse).
func (d *DB) Classify(query string) (Workload, error) {
	s, err := d.stmtFor(query)
	if err != nil {
		return WorkloadOLTP, err
	}
	return s.Workload(), nil
}

// Stats is a snapshot of the DB's statement-cache counters.
type Stats struct {
	// PlanCacheHits counts statement executions that found their text
	// in the plan cache (no parse).
	PlanCacheHits uint64
	// PlanCacheMisses counts executions that had to parse.
	PlanCacheMisses uint64
	// PlansCompiled counts operator-tree compilations (a prepared
	// statement executed N times sequentially compiles once).
	PlansCompiled uint64
}

// Stats returns current counter values.
func (d *DB) Stats() Stats { return d.cache.stats() }

// toValues converts Go arguments to engine values.
func toValues(args []any) ([]types.Value, error) {
	vals := make([]types.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			vals[i] = types.Value{Null: true}
		case int:
			vals[i] = types.NewInt(int64(v))
		case int32:
			vals[i] = types.NewInt(int64(v))
		case int64:
			vals[i] = types.NewInt(v)
		case float32:
			vals[i] = types.NewFloat(float64(v))
		case float64:
			vals[i] = types.NewFloat(v)
		case string:
			vals[i] = types.NewString(v)
		case bool:
			vals[i] = types.NewBool(v)
		case types.Value:
			vals[i] = v
		default:
			return nil, fmt.Errorf("db: unsupported argument %d type %T", i+1, a)
		}
	}
	return vals, nil
}
