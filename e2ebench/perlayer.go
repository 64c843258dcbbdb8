package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

// inProcessProbes runs the traced run's in-process probes after its
// window: planning time, the CH suite without the wire, and a full
// order_line scan.
func inProcessProbes(e *env, res *result) error {
	var ch, tpcc []string
	for _, q := range bench.Queries() {
		ch = append(ch, q.SQL)
	}
	for _, text := range tpccSQL {
		tpcc = append(tpcc, text)
	}
	planCH, err := probePrepare(e.d, ch, 5)
	if err != nil {
		return err
	}
	planTPCC, err := probePrepare(e.d, tpcc, 5)
	if err != nil {
		return err
	}
	dbq, err := probeDBQuery(e.d, probeReps)
	if err != nil {
		return err
	}
	scanMS, gbps, err := probeScan(e.d, probeReps)
	if err != nil {
		return err
	}
	res.add("sql.plan_us.ch", planCH, "us")
	res.add("sql.plan_us.tpcc", planTPCC, "us")
	res.add("db.query_geomean_ms", dbq, "ms")
	res.add("core.scan_ms.order_line", scanMS, "ms")
	res.add("colstore.scan_gb_per_s", gbps, "GB/s")
	return nil
}

// traceReport computes the per-layer metrics of the traced window and
// writes its spans.
func traceReport(cfg config, tr *tracer, win, untraced *window, res *result) error {
	o := summarizeOLAP(win.olap, win.olapDur)
	for i, v := range o.perQueryMS {
		res.add(fmt.Sprintf("ch.q%02d_ms", i+1), v, "ms")
	}
	res.add("wire.olap_share", 1-ratio(res.metrics["db.query_geomean_ms"].Value, o.geomeanMS), "ratio")

	// Server-reported queue wait and execution time per statement.
	var overhead, olapWait, oltpWait, oltpExec []float64
	perQueryExec := make([][]float64, len(o.perQueryMS))
	for _, q := range win.olap {
		overhead = append(overhead, us(q.lat-q.wait-q.exec))
		olapWait = append(olapWait, ms(q.wait))
		perQueryExec[q.q] = append(perQueryExec[q.q], ms(q.exec))
	}
	byKind := map[string][]float64{}
	for _, s := range win.stmts {
		overhead = append(overhead, us(s.lat-s.wait-s.exec))
		oltpWait = append(oltpWait, us(s.wait))
		oltpExec = append(oltpExec, us(s.exec))
		byKind[s.kind] = append(byKind[s.kind], us(s.lat))
	}
	var execMedians []float64
	for _, xs := range perQueryExec {
		execMedians = append(execMedians, median(xs))
	}
	res.add("wire.stmt_overhead_us", median(overhead), "us")
	res.add("server.olap_exec_ms", geomean(execMedians), "ms")
	res.add("server.oltp_exec_us", median(oltpExec), "us")
	res.add("sched.oltp_wait_us_p99", quantile(oltpWait, 0.99), "us")
	res.add("sched.olap_wait_ms_p99", quantile(olapWait, 0.99), "ms")
	for _, k := range []string{"select", "update", "insert", "delete"} {
		res.add("oltp."+k+"_us", median(byKind[k]), "us")
	}

	// Transactions.
	byTxn := map[bench.TxKind][]float64{}
	var commits []float64
	aborted := 0
	for _, t := range win.txns {
		if !t.ok {
			aborted++
			continue
		}
		byTxn[t.kind] = append(byTxn[t.kind], ms(t.lat))
		commits = append(commits, us(t.commit))
	}
	for _, k := range []bench.TxKind{bench.TxNewOrder, bench.TxPayment, bench.TxOrderStatus, bench.TxDelivery, bench.TxStockLevel} {
		res.add("tpcc."+strings.ToLower(k.String())+"_ms", median(byTxn[k]), "ms")
	}
	res.add("oltp.commit_us_p50", median(append([]float64(nil), commits...)), "us")
	res.add("oltp.commit_us_p99", quantile(commits, 0.99), "us")
	res.add("txn.abort_frac", ratio(float64(aborted), float64(len(win.txns))), "ratio")

	// Counters over the window.
	layerDeltas(win.before, win.after, win.ops, res)

	// Delta size and the merge driver.
	var dmax, dsum float64
	for _, n := range win.delta {
		dmax = max(dmax, float64(n))
		dsum += float64(n)
	}
	res.add("rowstore.delta_rows_max", dmax, "count")
	res.add("rowstore.delta_rows_mean", ratio(dsum, float64(len(win.delta))), "count")
	var mdur, mwait []float64
	var merged, mtotal float64
	for _, mo := range win.merges {
		mdur = append(mdur, ms(mo.dur))
		mwait = append(mwait, ms(mo.waited))
		merged += float64(mo.rows)
		mtotal += mo.dur.Seconds()
	}
	res.add("core.merges", float64(len(win.merges)), "count")
	res.add("core.merge_ms_p50", median(mdur), "ms")
	res.add("core.merge_ms_max", quantile(mdur, 1), "ms")
	res.add("core.merge_wait_ms_max", quantile(mwait, 1), "ms")
	res.add("core.merged_rows_per_s", ratio(merged, mtotal), "1/s")

	res.add("wal.recovery_s", win.recovery.Seconds(), "s")
	var lags []float64
	for _, l := range win.lags {
		lags = append(lags, ms(l))
	}
	res.add("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms")

	// Tracing overhead on the workload's headline metric.
	uo, ut := summarizeOLAP(untraced.olap, untraced.olapDur), summarizeOLTP(untraced.txns, untraced.oltpDur)
	to := summarizeOLTP(win.txns, win.oltpDur)
	switch cfg.workload {
	case "ch_olap":
		res.add("trace.overhead_frac", ratio(o.geomeanMS, uo.geomeanMS)-1, "ratio")
	case "tpcc_oltp":
		res.add("trace.overhead_frac", ratio(ut.txnPerS, to.txnPerS)-1, "ratio")
	case "htap_mixed":
		res.add("trace.overhead_frac", ratio(to.newOrderP50MS, ut.newOrderP50MS)-1, "ratio")
	}

	// Self time per layer from the span tree.
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	self, err := tr.finish(path)
	if err != nil {
		return err
	}
	var total int64
	for _, v := range self {
		total += v
	}
	for _, layer := range []string{"client", "wire", "sched", "server", "merge"} {
		res.add("trace.self_frac."+layer, ratio(float64(self[layer]), float64(total)), "ratio")
	}
	fmt.Println("spans", path, len(tr.spans))

	return nil
}
