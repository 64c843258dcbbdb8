package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/db"
	"repro/internal/bench"
	"repro/internal/sql"
	"repro/internal/storage/colstore"
	"repro/internal/types"
	"repro/internal/wal"
)

// mergeObs is one timed Engine.Merge call of the merge driver.
type mergeObs struct {
	dur, waited time.Duration
	rows        int
}

// mergeDriver is the workload's background merging, driven from outside
// the engine so each merge can be timed: every period it merges each
// table whose delta holds at least threshold rows (what
// Engine.AutoMergeAll does). It also samples the total delta size. With
// threshold 0 it only samples.
type mergeDriver struct {
	d         *db.DB
	period    time.Duration
	threshold int
	tr        *tracer

	merges []mergeObs
	delta  []int
	err    error
	stop   chan struct{}
	done   chan struct{}
}

func startMergeDriver(d *db.DB, period time.Duration, threshold int, tr *tracer) *mergeDriver {
	m := &mergeDriver{d: d, period: period, threshold: threshold, tr: tr,
		stop: make(chan struct{}), done: make(chan struct{})}
	go m.loop()
	return m
}

func (m *mergeDriver) loop() {
	defer close(m.done)
	tick := time.NewTicker(m.period)
	defer tick.Stop()
	eng := m.d.Engine()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		total := 0
		for _, name := range eng.Tables() {
			tbl, err := eng.Table(name)
			if err != nil {
				m.err = err
				return
			}
			n := tbl.DeltaRows()
			total += n
			if m.threshold == 0 || n < m.threshold {
				continue
			}
			start := time.Now()
			res, err := eng.Merge(name)
			if err != nil {
				m.err = err
				return
			}
			end := time.Now()
			m.tr.record(m.tr.id(), 0, 0, "merge."+name, start, end)
			m.merges = append(m.merges, mergeObs{dur: end.Sub(start), waited: res.Waited, rows: res.Merged})
		}
		m.delta = append(m.delta, total)
	}
}

// halt stops the driver and waits for an in-flight merge.
func (m *mergeDriver) halt() error {
	close(m.stop)
	<-m.done
	return m.err
}

// counters is a snapshot of every cumulative counter the layers expose.
type counters struct {
	srv      map[string]uint64 // server.StatsText
	plan     db.Stats
	scan     colstore.ScanStats // summed over tables
	wal      wal.LogStats
	walBytes int64
	rt       []metrics.Sample
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/allocs:bytes",
}

func snapshot(e *env) counters {
	c := counters{srv: map[string]uint64{}, plan: e.d.Stats()}
	if e.srv != nil {
		for _, line := range strings.Split(e.srv.StatsText(), "\n") {
			if k, v, ok := strings.Cut(line, " "); ok {
				n, _ := strconv.ParseUint(v, 10, 64)
				c.srv[k] = n
			}
		}
	}
	eng := e.d.Engine()
	for _, name := range eng.Tables() {
		if t, err := eng.Table(name); err == nil {
			s := t.ScanStats()
			c.scan.SegmentsTotal += s.SegmentsTotal
			c.scan.SegmentsPruned += s.SegmentsPruned
			c.scan.ZonesTotal += s.ZonesTotal
			c.scan.ZonesPruned += s.ZonesPruned
			c.scan.RowsScanned += s.RowsScanned
			c.scan.RowsMatched += s.RowsMatched
			c.scan.RowsDecoded += s.RowsDecoded
		}
	}
	if l := eng.Log(); l != nil {
		c.wal = l.Stats()
		for _, name := range l.Segments() {
			if fi, err := os.Stat(filepath.Join(l.Dir(), name)); err == nil {
				c.walBytes += fi.Size()
			}
		}
	}
	c.rt = make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		c.rt[i].Name = n
	}
	metrics.Read(c.rt)
	return c
}

// rtFloat / rtUint read a scalar runtime metric, 0 if unsupported.
func rtFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func rtUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// histQuantile is the q-quantile of the difference of two cumulative
// runtime histograms, as the upper edge of its bucket.
func histQuantile(a, b metrics.Sample, q float64) float64 {
	if a.Value.Kind() != metrics.KindFloat64Histogram || b.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Value.Float64Histogram(), b.Value.Float64Histogram()
	var total uint64
	d := make([]uint64, len(hb.Counts))
	for i := range d {
		d[i] = hb.Counts[i] - ha.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range d {
		seen += n
		if seen >= rank {
			if hi := hb.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return hb.Buckets[i]
		}
	}
	return 0
}

// layerDeltas turns two snapshots into per-layer counter metrics.
func layerDeltas(a, b counters, ops int, res *result) {
	d := func(k string) float64 { return float64(b.srv[k] - a.srv[k]) }
	stmts := d("lane_oltp_statements") + d("lane_olap_statements") + d("txn_begun") + d("txn_committed") + d("txn_rolled_back")
	res.add("wire.bytes_per_stmt", ratio(d("bytes_in")+d("bytes_out"), stmts), "B")
	res.add("sched.rejected", d("lane_oltp_rejected_full")+d("lane_oltp_rejected_timeout")+d("lane_olap_rejected_full")+d("lane_olap_rejected_timeout"), "count")

	hits := float64(b.plan.PlanCacheHits - a.plan.PlanCacheHits)
	misses := float64(b.plan.PlanCacheMisses - a.plan.PlanCacheMisses)
	res.add("db.plan_cache_hit_frac", 1-ratio(misses, hits+misses), "ratio")

	sc := func(f func(colstore.ScanStats) int) float64 { return float64(f(b.scan) - f(a.scan)) }
	scanned := sc(func(s colstore.ScanStats) int { return s.RowsScanned })
	res.add("colstore.rows_examined_per_row_out", ratio(scanned, sc(func(s colstore.ScanStats) int { return s.RowsMatched })), "count")
	res.add("colstore.decoded_per_scanned", ratio(sc(func(s colstore.ScanStats) int { return s.RowsDecoded }), scanned), "count")
	res.add("colstore.zone_pruned_frac", ratio(sc(func(s colstore.ScanStats) int { return s.ZonesPruned }), sc(func(s colstore.ScanStats) int { return s.ZonesTotal })), "ratio")
	res.add("colstore.segment_pruned_frac", ratio(sc(func(s colstore.ScanStats) int { return s.SegmentsPruned }), sc(func(s colstore.ScanStats) int { return s.SegmentsTotal })), "ratio")

	commits := d("txn_committed")
	res.add("wal.fsyncs_per_commit", ratio(float64(b.wal.Syncs-a.wal.Syncs), commits), "count")
	res.add("wal.commits_per_flush", ratio(commits, float64(b.wal.Flushes-a.wal.Flushes)), "count")
	res.add("wal.bytes_per_commit", ratio(float64(b.walBytes-a.walBytes), commits), "B")

	cpu := rtFloat(b.rt[1]) - rtFloat(a.rt[1])
	res.add("go.gc_cpu_frac", ratio(rtFloat(b.rt[0])-rtFloat(a.rt[0]), cpu), "ratio")
	res.add("go.gc_pause_p99_us", histQuantile(a.rt[2], b.rt[2], 0.99)*1e6, "us")
	res.add("go.sched_latency_p99_us", histQuantile(a.rt[3], b.rt[3], 0.99)*1e6, "us")
	res.add("go.alloc_bytes_per_op", ratio(float64(rtUint(b.rt[4])-rtUint(a.rt[4])), float64(ops)), "B")
}

// heapBytesPerRow forces a GC and divides the live heap by the live
// rows over all tables.
func heapBytesPerRow(d *db.DB) (float64, error) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	rows, err := liveRows(d)
	if err != nil {
		return 0, err
	}
	return ratio(float64(rtUint(s[0])), float64(rows)), nil
}

// probePrepare times sql.Prepare per statement text (median of reps)
// and returns the geometric mean in microseconds.
func probePrepare(d *db.DB, texts []string, reps int) (float64, error) {
	var per []float64
	for _, text := range texts {
		var ts []float64
		for range reps {
			start := time.Now()
			if _, err := sql.Prepare(d.Engine(), text); err != nil {
				return 0, err
			}
			ts = append(ts, us(time.Since(start)))
		}
		per = append(per, median(ts))
	}
	return geomean(per), nil
}

// probeDBQuery runs the CH suite in process through db.DB.Query (no
// wire), each query reps times and drained batch by batch, and returns
// the geometric mean of the per-query medians in milliseconds.
func probeDBQuery(d *db.DB, reps int) (float64, error) {
	var per []float64
	for _, q := range bench.Queries() {
		var ts []float64
		for range reps {
			start := time.Now()
			r, err := d.Query(context.Background(), q.SQL)
			if err != nil {
				return 0, err
			}
			for {
				b, err := r.NextBatch()
				if err != nil {
					r.Close()
					return 0, err
				}
				if b == nil {
					break
				}
			}
			if err := r.Close(); err != nil {
				return 0, err
			}
			ts = append(ts, ms(time.Since(start)))
		}
		per = append(per, median(ts))
	}
	return geomean(per), nil
}

// probeScan scans every order_line column through Tx.ScanCtx, reps
// times, and returns the median time in milliseconds and the decoded
// value bytes per second in GB/s.
func probeScan(d *db.DB, reps int) (scanMS, gbPerS float64, err error) {
	var ts, rates []float64
	for range reps {
		tx := d.Engine().Begin()
		var bytes int64
		start := time.Now()
		_, err := tx.ScanCtx(context.Background(), bench.TOrderLine, nil, nil, func(b *types.Batch) bool {
			for _, col := range b.Cols {
				if col.Typ == types.String {
					for i := 0; i < b.Len(); i++ {
						bytes += int64(len(col.Strings[b.RowIdx(i)]))
					}
				} else {
					bytes += 8 * int64(b.Len())
				}
			}
			return true
		})
		el := time.Since(start)
		tx.Abort()
		if err != nil {
			return 0, 0, err
		}
		ts = append(ts, ms(el))
		rates = append(rates, float64(bytes)/el.Seconds()/1e9)
	}
	return median(ts), median(rates), nil
}
