package colstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
)

// buildParallelSegment builds a segment spanning several zones with
// int/float/string columns and scattered NULLs.
func buildParallelSegment(n int) *Segment {
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "v", Type: types.Int64},
		{Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String},
	}, "id")
	b := NewBuilder(schema, 1)
	for i := 0; i < n; i++ {
		v := types.NewInt(int64(i % 1000))
		if i%97 == 0 {
			v = types.NewNull(types.Int64)
		}
		f := types.NewFloat(float64(i) / 4)
		if i%89 == 0 {
			f = types.NewNull(types.Float64)
		}
		b.Add(types.Row{
			types.NewInt(int64(i)),
			v,
			f,
			types.NewString(fmt.Sprintf("s%02d", i%37)),
		})
	}
	return b.Build()
}

// scanRows runs the morsel scan with the given worker count and returns
// the delivered rows as sorted keys (a multiset: batch order across
// workers is unspecified) plus the scan statistics.
func scanRows(seg *Segment, readTS, self uint64, proj []int, preds []Predicate, workers int) ([]string, ScanStats) {
	var mu sync.Mutex
	var got []string
	stats := seg.Scan(readTS, self, proj, preds, workers, nil, func(_ int, b *types.Batch) bool {
		mu.Lock()
		defer mu.Unlock()
		for r := 0; r < b.Len(); r++ {
			got = append(got, rowKey(b.Row(r)))
		}
		return true
	})
	sort.Strings(got)
	return got, stats
}

// referenceRows is the row-at-a-time reference the scan is checked
// against (naiveScan: Segment.Row, RowVisible, Predicate.Matches),
// projected and returned as sorted keys.
func referenceRows(seg *Segment, readTS, self uint64, proj []int, preds []Predicate) []string {
	var want []string
	for _, row := range naiveScan(seg, readTS, self, preds) {
		out := make(types.Row, len(proj))
		for i, ci := range proj {
			out[i] = row[ci]
		}
		want = append(want, rowKey(out))
	}
	sort.Strings(want)
	return want
}

// TestScanMatchesReference checks the morsel scan at 1, 2 and 4 workers
// against the row-at-a-time reference over random predicate stacks
// (NULL literals, IS [NOT] NULL, dictionary strings, absent values),
// committed and uncommitted deletes, and several snapshots, including
// the deleting transaction's own view.
func TestScanMatchesReference(t *testing.T) {
	const n = 6*ZoneSize + 77
	seg := buildSkipSegment(t, n)
	// Rows were merged at ts 1; delete some at ts 20 and 40, and leave
	// some with an uncommitted delete by transaction self.
	self := txn.TxnBase + 7
	for i := 0; i < n; i += 5 {
		switch i % 3 {
		case 0:
			seg.delTS[i].Store(20)
		case 1:
			seg.delTS[i].Store(40)
		default:
			seg.delTS[i].Store(self)
		}
	}
	snapshots := []struct{ readTS, self uint64 }{{10, 0}, {30, 0}, {50, 0}, {50, self}}
	pool := predPool()
	rng := rand.New(rand.NewSource(7))
	projs := [][]int{{0, 1, 2, 3}, {2}, {3, 0}}
	for trial := 0; trial < 120; trial++ {
		np := rng.Intn(3)
		preds := make([]Predicate, 0, np)
		for len(preds) < np {
			col := rng.Intn(4)
			op := allOps[rng.Intn(len(allOps))]
			var lit types.Value
			switch {
			case op == OpIsNull || op == OpIsNotNull:
			case rng.Intn(8) == 0:
				lit = types.NewNull(skipSchema().Cols[col].Type)
			default:
				lit = pool[col][rng.Intn(len(pool[col]))]
			}
			preds = append(preds, Predicate{Col: col, Op: op, Val: lit})
		}
		snap := snapshots[rng.Intn(len(snapshots))]
		proj := projs[rng.Intn(len(projs))]
		want := referenceRows(seg, snap.readTS, snap.self, proj, preds)
		var oneStats ScanStats
		for _, workers := range []int{1, 2, 4} {
			got, stats := scanRows(seg, snap.readTS, snap.self, proj, preds, workers)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d workers=%d snap=%+v preds=%v: %d rows, reference %d",
					trial, workers, snap, preds, len(got), len(want))
			}
			if workers == 1 {
				oneStats = stats
			} else if stats != oneStats {
				t.Fatalf("trial %d workers=%d: stats %+v != one-worker %+v", trial, workers, stats, oneStats)
			}
		}
	}
}

type scanTotals struct {
	rows int
	sumV int64
}

func drain(seg *Segment, workers int, preds []Predicate) (scanTotals, ScanStats) {
	var sumV, rows atomic.Int64
	stats := seg.Scan(100, 0, []int{0, 1, 2, 3}, preds, workers, nil, func(_ int, b *types.Batch) bool {
		rows.Add(int64(b.Len()))
		vc := b.Cols[1]
		for i := 0; i < b.Len(); i++ {
			phys := b.RowIdx(i)
			if !vc.IsNull(phys) {
				sumV.Add(vc.Ints[phys])
			}
		}
		return true
	})
	return scanTotals{rows: int(rows.Load()), sumV: sumV.Load()}, stats
}

// TestScanParallelMatchesSerial: more workers deliver the one-worker
// scan's rows and report identical statistics.
func TestScanParallelMatchesSerial(t *testing.T) {
	seg := buildParallelSegment(8*ZoneSize + 123)
	for _, preds := range [][]Predicate{
		nil,
		{{Col: 1, Op: OpLt, Val: types.NewInt(500)}},
		{{Col: 0, Op: OpGe, Val: types.NewInt(2000)}, {Col: 0, Op: OpLt, Val: types.NewInt(5000)}},
		{{Col: 3, Op: OpEq, Val: types.NewString("s05")}},
	} {
		serial, serialStats := drain(seg, 1, preds)
		for _, workers := range []int{2, 4} {
			par, parStats := drain(seg, workers, preds)
			if par != serial {
				t.Errorf("workers=%d preds=%v: parallel %+v != serial %+v", workers, preds, par, serial)
			}
			if parStats != serialStats {
				t.Errorf("workers=%d preds=%v: stats %+v != %+v", workers, preds, parStats, serialStats)
			}
		}
	}
}

func TestScanParallelVisibility(t *testing.T) {
	// Rows merged at different versions: only those at or before the
	// read snapshot are visible, identically at every worker count.
	schema := types.MustSchema([]types.Column{{Name: "id", Type: types.Int64}}, "id")
	b := NewBuilder(schema, 50)
	const n = 4 * ZoneSize
	for i := 0; i < n; i++ {
		b.AddVersioned(types.Row{types.NewInt(int64(i))}, uint64(10+i%20))
	}
	seg := b.Build()
	for _, readTS := range []uint64{9, 15, 40} {
		want := len(naiveScan(seg, readTS, 0, nil))
		serial, serialStats := scanRows(seg, readTS, 0, []int{0}, nil, 1)
		parallel, parStats := scanRows(seg, readTS, 0, []int{0}, nil, 4)
		if len(serial) != want || len(parallel) != want || serialStats != parStats {
			t.Errorf("readTS=%d: serial %d/%+v, parallel %d/%+v, reference %d",
				readTS, len(serial), serialStats, len(parallel), parStats, want)
		}
	}
}

func TestScanParallelEarlyStop(t *testing.T) {
	seg := buildParallelSegment(16 * ZoneSize)
	var delivered atomic.Int64
	stats := seg.Scan(100, 0, []int{0}, nil, 4, nil, func(_ int, b *types.Batch) bool {
		return delivered.Add(1) < 3
	})
	if got := delivered.Load(); got < 3 {
		t.Fatalf("delivered %d batches before stop, want >= 3", got)
	}
	// Early termination must not have scanned everything.
	if stats.RowsMatched >= 16*ZoneSize {
		t.Errorf("early stop still matched all %d rows", stats.RowsMatched)
	}
}

// TestScanParallelBatchTransient documents the batch contract: a batch
// retained beyond the callback is reused, so retainers must Copy. The
// Copy must survive intact.
func TestScanParallelBatchTransient(t *testing.T) {
	seg := buildParallelSegment(6 * ZoneSize)
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		var copies []*types.Batch
		seg.Scan(100, 0, []int{0, 1}, nil, workers, nil, func(_ int, b *types.Batch) bool {
			c := b.Copy()
			mu.Lock()
			copies = append(copies, c)
			mu.Unlock()
			return true
		})
		total := 0
		var sum int64
		for _, b := range copies {
			total += b.Len()
			c := b.Cols[0]
			for i := 0; i < b.Len(); i++ {
				sum += c.Ints[i]
			}
		}
		want := 6 * ZoneSize
		if total != want {
			t.Fatalf("workers=%d: copied rows = %d, want %d", workers, total, want)
		}
		var wantSum int64
		for i := 0; i < want; i++ {
			wantSum += int64(i)
		}
		if sum != wantSum {
			t.Fatalf("workers=%d: sum over copies = %d, want %d", workers, sum, wantSum)
		}
	}
}

func TestScanParallelSingleZoneFallsBack(t *testing.T) {
	seg := buildParallelSegment(100) // one zone: the scan runs one worker inline
	got, stats := drain(seg, 8, nil)
	want, wantStats := drain(seg, 1, nil)
	if got != want || stats != wantStats {
		t.Fatalf("single-zone parallel %+v/%+v != serial %+v/%+v", got, stats, want, wantStats)
	}
}
