package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/types"
)

func intRec(txn uint64, kind Kind, v int64) Record {
	return Record{TxnID: txn, Kind: kind, Table: "t", Row: types.Row{types.NewInt(v)}}
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
	}{{"group", SyncGroup}, {"", SyncGroup}, {"SYNC", SyncSync}, {"async", SyncAsync}, {"each", SyncEach}} {
		got, err := ParseSyncMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Error("ParseSyncMode accepted bogus mode")
	}
	if SyncGroup.String() != "group" || SyncEach.String() != "each" {
		t.Error("SyncMode.String")
	}
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, lsn := range []uint64{1, 255, 1 << 40} {
		got, ok := parseSegName(segName(lsn))
		if !ok || got != lsn {
			t.Fatalf("parseSegName(segName(%d)) = %d, %v", lsn, got, ok)
		}
	}
	for _, bad := range []string{"wal-zz.log", "wal-0001.log", "other.log", "wal-0000000000000001.txt"} {
		if _, ok := parseSegName(bad); ok {
			t.Errorf("parseSegName accepted %q", bad)
		}
	}
}

func TestLogAppendReadRoundTrip(t *testing.T) {
	for _, mode := range []SyncMode{SyncGroup, SyncSync, SyncAsync, SyncEach} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenLog(dir, LogOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if _, err := l.Append(intRec(uint64(i), KindInsert, int64(i)), intRec(uint64(i), KindCommit, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := ReadSegments(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 100 {
				t.Fatalf("read %d records, want 100", len(recs))
			}
			for i, r := range recs {
				if r.LSN != uint64(i+1) {
					t.Fatalf("LSN[%d] = %d", i, r.LSN)
				}
			}
		})
	}
}

func TestLogReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	l, _ := OpenLog(dir, LogOptions{Mode: SyncSync})
	l.Append(intRec(1, KindInsert, 10), intRec(1, KindCommit, 0))
	l.Close()

	l2, err := OpenLog(dir, LogOptions{Mode: SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.NextLSN(); got != 3 {
		t.Fatalf("NextLSN after reopen = %d, want 3", got)
	}
	lsn, err := l2.Append(intRec(2, KindInsert, 20))
	if err != nil || lsn != 3 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
	l2.Close()

	recs, _ := ReadSegments(nil, dir)
	if len(recs) != 3 || recs[2].LSN != 3 || recs[2].Row[0].I != 20 {
		t.Fatalf("records after reopen: %v", recs)
	}
	// Two segments: reopen starts a fresh one.
	if segs, _, _ := scanSegments(OSFS{}, dir, false); len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
}

func TestLogMinLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Mode: SyncSync, MinLSN: 100})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(intRec(1, KindInsert, 1))
	if err != nil || lsn != 100 {
		t.Fatalf("first LSN with MinLSN=100: %d, %v", lsn, err)
	}
	l.Close()
}

func TestLogRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every append rotates.
	l, err := OpenLog(dir, LogOptions{Mode: SyncSync, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(intRec(uint64(i), KindInsert, int64(i)), intRec(uint64(i), KindCommit, 0)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 5 {
		t.Fatalf("expected many segments, got %v", segs)
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("no rotations counted")
	}
	recs, err := ReadSegments(nil, dir)
	if err != nil || len(recs) != 20 {
		t.Fatalf("read %d records across segments (%v)", len(recs), err)
	}

	// Truncate below LSN 11: segments holding only records 1..10 go.
	removed, err := l.TruncateBelow(11)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing truncated")
	}
	recs, err = ReadSegments(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].LSN > 11 {
		t.Fatalf("truncation removed too much: first remaining LSN %v", recs)
	}
	for _, r := range recs {
		if r.LSN > 20 {
			t.Fatalf("unexpected LSN %d", r.LSN)
		}
	}
	// New appends still work and stay continuous.
	if _, err := l.Append(intRec(99, KindInsert, 99)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	recs, _ = ReadSegments(nil, dir)
	if recs[len(recs)-1].LSN != 21 {
		t.Fatalf("post-truncate append LSN = %d", recs[len(recs)-1].LSN)
	}
}

func TestLogTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := OpenLog(dir, LogOptions{Mode: SyncSync})
	l.Append(intRec(1, KindInsert, 1), intRec(1, KindCommit, 0))
	l.Append(intRec(2, KindInsert, 2), intRec(2, KindCommit, 0))
	l.Close()

	// Tear the tail of the only segment.
	segs, _, _ := scanSegments(OSFS{}, dir, false)
	path := filepath.Join(dir, segs[0].name)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, LogOptions{Mode: SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	// Torn COMMIT of txn 2 discarded: next LSN is 4.
	if got := l2.NextLSN(); got != 4 {
		t.Fatalf("NextLSN after torn reopen = %d, want 4", got)
	}
	l2.Append(intRec(3, KindInsert, 3), intRec(3, KindCommit, 0))
	l2.Close()

	recs, _ := ReadSegments(nil, dir)
	var lsns []uint64
	for _, r := range recs {
		lsns = append(lsns, r.LSN)
	}
	if len(recs) != 5 || lsns[4] != 5 {
		t.Fatalf("records after torn reopen: %v", lsns)
	}
}

// TestReplayDirFiltersUncommitted: recovery replays catalog records
// unconditionally and data only for transactions whose COMMIT reached
// disk — aborted, in-flight and torn-COMMIT transactions are dropped —
// and skips everything at or below the checkpoint LSN.
func TestReplayDirFiltersUncommitted(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Mode: SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	// LSNs 1-2: txn 1 commits below the checkpoint (afterLSN=2).
	l.Append(intRec(1, KindInsert, 1), intRec(1, KindCommit, 0))
	l.Append(Record{Kind: KindCreateTable, Table: "u", Row: types.Row{types.NewInt(0)}})
	// Txn 2 commits, txn 3 aborts, txn 4 is in flight, txn 5's COMMIT
	// is torn below.
	l.Append(intRec(2, KindInsert, 2), intRec(3, KindInsert, 3), intRec(2, KindCommit, 0))
	l.Append(intRec(3, KindAbort, 0), intRec(4, KindInsert, 4))
	l.Append(intRec(5, KindInsert, 5), intRec(5, KindCommit, 0))
	l.Close()

	segs, _, _ := scanSegments(OSFS{}, dir, false)
	path := filepath.Join(dir, segs[len(segs)-1].name)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	var got []string
	err = ReplayDir(nil, dir, 2, func(r Record) error {
		s := fmt.Sprintf("%d:%s", r.TxnID, r.Kind)
		if r.Kind == KindInsert {
			s += fmt.Sprintf("(%d)", r.Row[0].I)
		}
		got = append(got, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0:CREATE_TABLE", "2:INSERT(2)", "2:COMMIT"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// replayedInts replays dir from the start and returns the integer
// payload of every replayed INSERT.
func replayedInts(t *testing.T, dir string) []int64 {
	t.Helper()
	var applied []int64
	err := ReplayDir(nil, dir, 0, func(r Record) error {
		if r.Kind == KindInsert {
			applied = append(applied, r.Row[0].I)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return applied
}

// TestReplayFiltersUncommitted: with one record per Append (so
// transactions interleave in the log), only the transaction that
// committed replays; the aborted and the in-flight one do not.
func TestReplayFiltersUncommitted(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Mode: SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	// txn 1 commits, txn 2 aborts, txn 3 in flight at crash.
	for _, r := range []Record{
		{TxnID: 1, Kind: KindBegin},
		intRec(1, KindInsert, 1),
		{TxnID: 2, Kind: KindBegin},
		intRec(2, KindInsert, 2),
		{TxnID: 1, Kind: KindCommit},
		{TxnID: 2, Kind: KindAbort},
		{TxnID: 3, Kind: KindBegin},
		intRec(3, KindInsert, 3),
	} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if applied := replayedInts(t, dir); len(applied) != 1 || applied[0] != 1 {
		t.Fatalf("ReplayDir applied %v, want [1]", applied)
	}
}

// TestReplayTornTail: a crash inside the final record tears the last
// transaction's COMMIT, so only the transaction before it replays.
func TestReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Mode: SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{TxnID: 1, Kind: KindBegin}, intRec(1, KindInsert, 10), Record{TxnID: 1, Kind: KindCommit})
	l.Append(Record{TxnID: 2, Kind: KindBegin}, intRec(2, KindInsert, 20), Record{TxnID: 2, Kind: KindCommit})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _, _ := scanSegments(OSFS{}, dir, false)
	path := filepath.Join(dir, segs[len(segs)-1].name)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	// txn 2's COMMIT was torn, so only txn 1 replays.
	if applied := replayedInts(t, dir); len(applied) != 1 || applied[0] != 10 {
		t.Fatalf("ReplayDir after torn tail = %v, want [10]", applied)
	}
}

func TestLogDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	l, _ := OpenLog(dir, LogOptions{Mode: SyncSync})
	lsn, err := l.Append(intRec(1, KindInsert, 1), intRec(1, KindCommit, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got < lsn {
		t.Fatalf("DurableLSN %d < acked LSN %d in sync mode", got, lsn)
	}
	l.Close()
}

func TestLogAsyncSyncBarrier(t *testing.T) {
	dir := t.TempDir()
	l, _ := OpenLog(dir, LogOptions{Mode: SyncAsync})
	lsn, err := l.Append(intRec(1, KindInsert, 1), intRec(1, KindCommit, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got < lsn {
		t.Fatalf("DurableLSN %d < %d after Sync barrier", got, lsn)
	}
	l.Close()
}

func TestLogClosedAppendFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := OpenLog(dir, LogOptions{Mode: SyncSync})
	l.Close()
	if _, err := l.Append(intRec(1, KindInsert, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

// TestLogGroupCommitAmortizesFsync is the core group-commit property:
// 16 concurrent committers in a durable mode share fsyncs, so
// fsyncs/commit lands well under 1 (acceptance target < 0.2).
func TestLogGroupCommitAmortizesFsync(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Mode: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const committers, perG = 16, 25
	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := int64(g*perG + i)
				if _, err := l.Append(intRec(uint64(v), KindInsert, v), intRec(uint64(v), KindCommit, 0)); err != nil {
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
	stats := l.Stats()
	commits := uint64(committers * perG)
	if stats.Appends != 2*commits {
		t.Fatalf("appends = %d, want %d", stats.Appends, 2*commits)
	}
	ratio := float64(stats.Syncs) / float64(commits)
	t.Logf("fsyncs=%d commits=%d ratio=%.3f flushes=%d", stats.Syncs, commits, ratio, stats.Flushes)
	if ratio >= 0.2 {
		t.Fatalf("fsyncs/commit = %.3f, want < 0.2 (group commit not amortizing)", ratio)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := ReadSegments(nil, dir)
	if len(recs) != int(2*commits) {
		t.Fatalf("read %d records, want %d", len(recs), 2*commits)
	}
}

func TestFaultFSWriteBufferedUntilSync(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, Fault{})
	f, err := ffs.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, "x")); len(data) != 0 {
		t.Fatalf("bytes reached disk before sync: %q", data)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, "x")); string(data) != "hello" {
		t.Fatalf("after sync: %q", data)
	}
	f.Close()
}

func TestFaultFSCrashLeaksPrefix(t *testing.T) {
	dir := t.TempDir()
	// Crash on the 2nd write, leaking 3 bytes of pending data.
	ffs := NewFaultFS(OSFS{}, Fault{Op: FaultWrite, N: 2, Leak: 3})
	f, _ := ffs.Create(filepath.Join(dir, "x"))
	if err := ffs.SyncDir(dir); err != nil { // keep the entry across the crash
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("cdef")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := f.Write([]byte("zz")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash write: %v", err)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, "x")); string(data) != "abc" {
		t.Fatalf("leaked bytes = %q, want \"abc\"", data)
	}
}

func TestFaultFSCrashAtSyncLosesPending(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, Fault{Op: FaultSync, N: 1, Leak: 0})
	f, _ := ffs.Create(filepath.Join(dir, "x"))
	f.Write([]byte("doomed"))
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, "x")); len(data) != 0 {
		t.Fatalf("unsynced bytes survived crash: %q", data)
	}
}

// TestFaultFSDirEntryVolatileUntilSyncDir: a file created through
// FaultFS loses its directory entry (and thus itself) in a crash unless
// SyncDir ran on its directory first — fsyncing the file is not enough.
func TestFaultFSDirEntryVolatileUntilSyncDir(t *testing.T) {
	t.Run("no-syncdir-loses-file", func(t *testing.T) {
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{}, Fault{Op: FaultSync, N: 2, Leak: 0})
		f, _ := ffs.Create(filepath.Join(dir, "x"))
		f.Write([]byte("aa"))
		if err := f.Sync(); err != nil { // data durable, entry still volatile
			t.Fatal(err)
		}
		f.Write([]byte("bb"))
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("want ErrInjected, got %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "x")); !os.IsNotExist(err) {
			t.Fatalf("file survived crash despite un-synced directory entry: %v", err)
		}
	})
	t.Run("syncdir-keeps-file", func(t *testing.T) {
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{}, Fault{Op: FaultSync, N: 2, Leak: 0})
		f, _ := ffs.Create(filepath.Join(dir, "x"))
		f.Write([]byte("aa"))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := ffs.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("bb"))
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("want ErrInjected, got %v", err)
		}
		if data, err := os.ReadFile(filepath.Join(dir, "x")); err != nil || string(data) != "aa" {
			t.Fatalf("synced prefix = %q, %v, want \"aa\"", data, err)
		}
	})
}

func TestFaultFSCounts(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, Fault{})
	f, _ := ffs.Create(filepath.Join(dir, "x"))
	f.Write([]byte("a"))
	f.Write([]byte("b"))
	f.Sync()
	f.Close()
	counts := ffs.Counts()
	if counts[FaultCreate] != 1 || counts[FaultWrite] != 2 || counts[FaultSync] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestLogSegmentDirEntryDurableBeforeAck: the log must SyncDir after
// creating a segment, before acknowledging any commit in it — otherwise
// a power failure can drop the directory entry and silently lose every
// acked record in the segment (FaultFS models exactly that).
func TestLogSegmentDirEntryDurableBeforeAck(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, Fault{Op: FaultWrite, N: 2, Leak: 0})
	l, err := OpenLog(dir, LogOptions{Mode: SyncSync, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	acked, err := l.Append(intRec(1, KindInsert, 1), intRec(1, KindCommit, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(intRec(2, KindInsert, 2)); err == nil {
		t.Fatal("fault never fired")
	}
	l.Close()
	// Reboot: the acked records must be readable from the real disk.
	recs, err := ReadSegments(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) < acked {
		t.Fatalf("acked through LSN %d but only %d records survived (segment directory entry lost)", acked, len(recs))
	}
}

// TestLogReopenDropsEmptyTailSegment: a crash can leave the newest
// segment created but with zero intact records. Reopen must delete it
// rather than keep it in the segment list, where the first post-open
// append would re-create the same file name and register a duplicate
// entry that a later TruncateBelow trips over (ENOENT).
func TestLogReopenDropsEmptyTailSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Mode: SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(intRec(1, KindInsert, 1), intRec(1, KindCommit, 0)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate the crash remnant: the next segment exists, empty.
	if err := os.WriteFile(filepath.Join(dir, segName(3)), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, LogOptions{Mode: SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.NextLSN(); got != 3 {
		t.Fatalf("NextLSN after reopen = %d, want 3", got)
	}
	if _, err := l2.Append(intRec(2, KindInsert, 2), intRec(2, KindCommit, 0)); err != nil {
		t.Fatal(err)
	}
	if segs := l2.Segments(); len(segs) != 2 {
		t.Fatalf("segments after reopen+append = %v, want 2 distinct", segs)
	}
	// The duplicate-entry bug made this fail with ENOENT.
	if _, err := l2.TruncateBelow(5); err != nil {
		t.Fatalf("TruncateBelow after empty-tail reopen: %v", err)
	}
	if _, err := l2.Append(intRec(3, KindInsert, 3)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs, err := ReadSegments(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 5 {
		t.Fatalf("post-truncate records: %+v, want single LSN 5", recs)
	}
}

// TestLogCrashMidWriteRecoversPrefix drives the log itself through a
// fault filesystem: a crash that tears a record mid-write must leave a
// recoverable prefix — exactly the records whose fsync completed.
func TestLogCrashMidWriteRecoversPrefix(t *testing.T) {
	for _, leak := range []int{0, 1, 5, -1} {
		t.Run(fmt.Sprintf("leak=%d", leak), func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS(OSFS{}, Fault{Op: FaultWrite, N: 3, Leak: leak})
			l, err := OpenLog(dir, LogOptions{Mode: SyncSync, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			var acked []uint64
			for i := 0; i < 10; i++ {
				lsn, err := l.Append(intRec(uint64(i), KindInsert, int64(i)), intRec(uint64(i), KindCommit, 0))
				if err != nil {
					break
				}
				acked = append(acked, lsn)
			}
			l.Close()
			if !ffs.Crashed() {
				t.Fatal("fault never fired")
			}
			// Reboot: read with the real filesystem.
			recs, err := ReadSegments(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			// Every acked LSN must be present; records form a clean prefix.
			maxAcked := uint64(0)
			if len(acked) > 0 {
				maxAcked = acked[len(acked)-1]
			}
			if uint64(len(recs)) < maxAcked {
				t.Fatalf("acked through LSN %d but only %d records recovered", maxAcked, len(recs))
			}
			for i, r := range recs {
				if r.LSN != uint64(i+1) {
					t.Fatalf("recovered LSN gap at %d: %d", i, r.LSN)
				}
			}
		})
	}
}
