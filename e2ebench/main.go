// Command e2ebench is the repository's end-to-end benchmark: the
// CH-benCHmark (TPC-C transactions and CH analytic queries over one
// dataset) driven through the client driver and an in-process server on
// loopback TCP, in three workloads — ch_olap, tpcc_oltp and htap_mixed.
// It checks every result, prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a second, traced window) and ends
// with one JSON line. README.md beside this file describes the
// workloads, the metrics and the layers they attribute time to.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload ch_olap --seed 1 --seconds 12 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/db"
	"repro/internal/bench"
)

// The fixed configuration. A run's work is fixed by --seconds and these
// constants, not by how fast the build is, so memory, merge counts and
// latencies always compare equal work.
var scale = bench.Scale{Warehouses: 4, DistrictsPerW: 10, CustomersPerD: 300, Items: 20000, InitialOrdersPerD: 300}

const (
	defaultSeed = 1
	// chDigest is the digest of the CH results at scale and defaultSeed.
	chDigest = "6cfd6e5a91468cd3"
	// setupRuns is how many times a run sets up; setup_s is the median.
	setupRuns = 3

	// ch_olap: CH passes per second of --seconds, one connection.
	chPassesPerSec = 2.5
	// tpcc_oltp: transactions per second of --seconds over two
	// connections, closed loop.
	tpccTxnPerSec = 60.0
	// htap_mixed: offered TPC-C rate on one connection, open loop.
	htapRate = 9.0
	// The merge driver: every mergePeriod, merge each table whose delta
	// holds at least the workload's mergeThreshold rows.
	mergePeriod = 100 * time.Millisecond

	// A run measures for --seconds. htap_mixed spends it all in its
	// window. ch_olap and tpcc_oltp spend windowShare of it in their
	// window and the rest in a probe of the side they do not stress, so
	// every workload reports every end-to-end metric: ch_olap then runs
	// the tpcc_oltp loop on its data, tpcc_oltp CH passes.
	windowShare = 2.0 / 3
	// Repetitions of the in-process probes of the traced run.
	probeReps = 3
)

// workloads holds each workload's set-up. Every database is durable
// (db.Options.Dir, default SyncGroup); ch_olap's window never commits.
// htap_mixed's analytic side runs on one worker (Parallelism 1), so its
// transactions keep a core, as a deployment isolating its OLTP side
// would.
var workloads = map[string]struct {
	conns          int
	parallelism    int
	mergeThreshold int // 0: the merge driver only samples the delta
}{
	"ch_olap":    {2, 0, 0},
	"tpcc_oltp":  {2, 0, 1000},
	"htap_mixed": {2, 1, 150},
}

// chPasses and tpccTxns size the fixed work of a share of the window.
func chPasses(cfg config, share float64) int {
	return max(1, int(share*float64(cfg.seconds)*chPassesPerSec+0.5))
}

func tpccTxns(cfg config, share float64) int {
	return max(2, int(share*float64(cfg.seconds)*tpccTxnPerSec+0.5))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "ch_olap", "ch_olap, tpcc_oltp or htap_mixed")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "data and transaction-mix seed")
	flag.IntVar(&cfg.seconds, "seconds", 12, "nominal window length; sets the fixed amount of work")
	flag.IntVar(&traceFlag, "trace", 0, "1: add a traced window and report per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/e2ebench", "directory for databases, spans and results")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: bad --workload or --seconds")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if err := report(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	correct           bool
	problems          []string
	attempted, failed int
	metrics           map[string]metric
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// run sets up setupRuns times and measures one window on the last setup
// (with --trace 1, an untraced window on the second-to-last and a traced
// one on the last).
func run(cfg config) (*result, error) {
	res := &result{correct: true, metrics: map[string]metric{}}
	w := workloads[cfg.workload]
	var setups []float64
	var ref [][][]any // in-process CH results, ch_olap only
	var untraced *window
	for i := range setupRuns {
		o := setupOpts{sc: scale, seed: cfg.seed, conns: w.conns, parallelism: w.parallelism,
			dir: filepath.Join(cfg.out, fmt.Sprintf("db-%s-%d-%d", cfg.workload, os.Getpid(), i))}
		o.warm = func(e *env) error { return warm(cfg, e) }
		if i == 0 && cfg.workload == "ch_olap" {
			o.beforeMerge = func(d *db.DB) error {
				pre, err := chReference(dbQ{d})
				ref = pre
				return err
			}
		}
		e, took, err := setup(o)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
		if i == 0 && cfg.workload == "ch_olap" {
			if ref, err = checkMergedCH(cfg, e, ref, res); err != nil {
				return nil, errors.Join(err, e.close())
			}
		}
		var win *window
		switch {
		case i == setupRuns-1:
			var tr *tracer
			if cfg.trace {
				tr = newTracer()
			}
			win, err = measure(cfg, e, tr, ref, res)
			if err == nil && cfg.trace {
				err = traceReport(cfg, tr, win, untraced, res)
			}
			if err == nil {
				endToEnd(cfg, win, untraced, res)
			}
		case i == setupRuns-2 && cfg.trace:
			untraced, err = measure(cfg, e, nil, ref, res)
		}
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		if err := e.close(); err != nil {
			return nil, err
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	if !cfg.trace {
		res.add("setup_s", median(setups), "s")
	}
	return res, nil
}

// warm prepares every statement a workload sends and runs each CH query
// once, so plan caches and prepared statements are hot.
func warm(cfg config, e *env) error {
	switch cfg.workload {
	case "ch_olap":
		_, err := chReference(wireQ{e.conns[0]})
		return err
	case "tpcc_oltp":
		terms, err := newTerminals(cfg.seed, e)
		e.terms = terms
		return err
	case "htap_mixed":
		t, err := newTerminal(e.conns[0], scale, homeWarehouses(scale.Warehouses, 1, 0), cfg.seed*7919, &e.nextHist)
		if err != nil {
			return err
		}
		e.terms = append(e.terms, t)
		_, err = chReference(wireQ{e.conns[1]})
		return err
	}
	return nil
}

// newTerminals binds one TPC-C terminal to each connection of e, with
// the warehouses dealt among them.
func newTerminals(seed int64, e *env) ([]*terminal, error) {
	var terms []*terminal
	for i, c := range e.conns {
		t, err := newTerminal(c, e.sc, homeWarehouses(e.sc.Warehouses, len(e.conns), i), seed*7919+int64(i), &e.nextHist)
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return terms, nil
}

// closedLoops runs n transactions split over the terminals, each
// terminal closed loop on its own goroutine.
func closedLoops(terms []*terminal, n int, tr *tracer) error {
	errs := make([]error, len(terms))
	var wg sync.WaitGroup
	for i, t := range terms {
		t.tr = tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = t.closedLoop(n / len(terms))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window is what one measured window observed.
type window struct {
	dur      time.Duration
	olap     []queryObs
	olapDur  time.Duration // span of the analytic observations
	txns     []txnObs
	oltpDur  time.Duration // span of the transactional observations
	stmts    []stmtObs
	lags     []time.Duration
	merges   []mergeObs
	delta    []int
	acked    []newOrderKey
	ops      int // operations in the window, probes excluded
	failed   int
	heap     float64
	recovery time.Duration
	before   counters
	after    counters
}

// measure runs the workload's window on e, then its post-window checks
// and probes.
func measure(cfg config, e *env, tr *tracer, ref [][][]any, res *result) (*window, error) {
	win := &window{}
	runtime.GC() // every window starts from the same collector state
	md := startMergeDriver(e.d, mergePeriod, workloads[cfg.workload].mergeThreshold, tr)
	win.before = snapshot(e)
	start := time.Now()
	var err error
	switch cfg.workload {
	case "ch_olap":
		s := &chStream{c: e.conns[0], tr: tr, passes: chPasses(cfg, windowShare), capture: true}
		err = s.run()
		win.olap, win.failed = s.obs, s.failed
		if err == nil {
			for pass, got := range s.got {
				if cerr := compareCH(ref, got); cerr != nil {
					res.fail("ch_olap: wire result of pass %d differs from the in-process result: %v", pass, cerr)
				}
			}
		}
	case "tpcc_oltp":
		err = closedLoops(e.terms, tpccTxns(cfg, windowShare), tr)
	case "htap_mixed":
		t := e.terms[0]
		t.tr = tr
		stop := make(chan struct{})
		s := &chStream{c: e.conns[1], tr: tr, stop: stop}
		var serr error
		done := make(chan struct{})
		go func() { defer close(done); serr = s.run() }()
		win.lags, err = t.openLoop(int(float64(cfg.seconds)*htapRate), htapRate, start)
		close(stop)
		<-done
		err = errors.Join(err, serr)
		win.olap, win.failed = s.obs, s.failed
	}
	win.dur = time.Since(start)
	win.after = snapshot(e)
	err = errors.Join(err, md.halt())
	win.merges, win.delta = md.merges, md.delta
	for _, t := range e.terms {
		win.txns = append(win.txns, t.obs...)
		win.stmts = append(win.stmts, t.stmtObs...)
		win.acked = append(win.acked, t.acked...)
		win.failed += t.failed
		t.obs, t.stmtObs, t.acked, t.failed, t.tr = nil, nil, nil, 0, nil
	}
	win.olapDur, win.oltpDur = win.dur, win.dur
	win.ops = len(win.olap) + len(win.txns)
	if err != nil {
		return nil, err
	}
	if win.heap, err = heapBytesPerRow(e.d); err != nil {
		return nil, err
	}
	return win, postWindow(cfg, e, tr, win, res)
}

// postWindow runs each workload's correctness checks, the probe of the
// side its window does not exercise and, in the traced run, the
// in-process probes (on the same data as the analytic figures they are
// compared with).
func postWindow(cfg config, e *env, tr *tracer, win *window, res *result) error {
	probes := func() error {
		if tr == nil {
			return nil
		}
		return inProcessProbes(e, res)
	}
	switch cfg.workload {
	case "ch_olap":
		if err := probes(); err != nil {
			return err
		}
		terms, err := newTerminals(cfg.seed, e)
		if err != nil {
			return err
		}
		runtime.GC()
		md := startMergeDriver(e.d, mergePeriod, workloads["tpcc_oltp"].mergeThreshold, tr)
		start := time.Now()
		err = closedLoops(terms, tpccTxns(cfg, 1-windowShare), tr)
		win.oltpDur = time.Since(start)
		if err := errors.Join(err, md.halt()); err != nil {
			return err
		}
		acked := 0
		for _, t := range terms {
			win.txns, win.stmts = append(win.txns, t.obs...), append(win.stmts, t.stmtObs...)
			win.failed += t.failed
			acked += len(t.acked)
		}
		if err := checkConsistency(wireQ{e.conns[0]}, scale, acked); err != nil {
			res.fail("ch_olap: after the transaction probe: %v", err)
		}
	case "tpcc_oltp":
		if err := checkConsistency(wireQ{e.conns[0]}, scale, len(win.acked)); err != nil {
			res.fail("tpcc_oltp: %v", err)
		}
		// The probe runs on merged data, so its state does not depend
		// on when the window's last merge happened.
		if err := checkMergeInvariant(e, res, "tpcc_oltp"); err != nil {
			return err
		}
		if err := probes(); err != nil {
			return err
		}
		runtime.GC()
		s := &chStream{c: e.conns[0], tr: tr, passes: chPasses(cfg, 1-windowShare)}
		start := time.Now()
		if err := s.run(); err != nil {
			return err
		}
		win.olapDur = time.Since(start)
		win.olap, win.failed = s.obs, win.failed+s.failed
		return checkDurability(e, win, res)
	case "htap_mixed":
		if err := probes(); err != nil {
			return err
		}
		if err := checkConsistency(wireQ{e.conns[0]}, scale, len(win.acked)); err != nil {
			res.fail("htap_mixed: %v", err)
		}
		return checkMergeInvariant(e, res, "htap_mixed")
	}
	return nil
}

// checkMergeInvariant runs the CH suite over the wire, merges every
// table, runs it again and requires the same results.
func checkMergeInvariant(e *env, res *result, wl string) error {
	pre, err := chReference(wireQ{e.conns[0]})
	if err != nil {
		return err
	}
	if err := mergeAll(e.d); err != nil {
		return err
	}
	post, err := chReference(wireQ{e.conns[0]})
	if err != nil {
		return err
	}
	if err := compareCH(pre, post); err != nil {
		res.fail("%s: CH results change across a merge: %v", wl, err)
	}
	return nil
}

// checkMergedCH compares the in-process CH results before the set-up
// merge (pre) with those after it, and the digest at the default seed.
// It returns the results after the merge.
func checkMergedCH(cfg config, e *env, pre [][][]any, res *result) ([][][]any, error) {
	post, err := chReference(dbQ{e.d})
	if err != nil {
		return nil, err
	}
	if err := compareCH(pre, post); err != nil {
		res.fail("ch_olap: CH results change across the set-up merge: %v", err)
	}
	if cfg.seed == defaultSeed {
		if got := digestCH(post); got != chDigest {
			res.fail("ch_olap: CH result digest %s, recorded %s", got, chDigest)
		}
	}
	return post, nil
}

// checkDurability closes the database, reopens its directory, and
// checks every acknowledged NewOrder and the consistency conditions.
func checkDurability(e *env, win *window, res *result) error {
	if err := e.stopServer(); err != nil {
		return err
	}
	if err := e.d.Close(); err != nil {
		return err
	}
	e.d = nil
	start := time.Now()
	d, err := db.Open(db.Options{Dir: e.dir})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e.d = d
	win.recovery = time.Since(start)
	if err := checkAcked(dbQ{d}, e.sc, win.acked); err != nil {
		res.fail("tpcc_oltp: after recovery: %v", err)
	}
	if err := checkConsistency(dbQ{d}, e.sc, len(win.acked)); err != nil {
		res.fail("tpcc_oltp: after recovery: %v", err)
	}
	return nil
}

// endToEnd counts the operations of the measured windows and, in an
// untraced run, reports the end-to-end metrics of its window.
func endToEnd(cfg config, win, untraced *window, res *result) {
	for _, w := range []*window{win, untraced} {
		if w != nil {
			res.attempted += len(w.olap) + len(w.txns)
			res.failed += w.failed
		}
	}
	if cfg.trace {
		return
	}
	o := summarizeOLAP(win.olap, win.olapDur)
	t := summarizeOLTP(win.txns, win.oltpDur)
	res.add("olap_geomean_ms", o.geomeanMS, "ms")
	res.add("olap_p95_ms", o.p95MS, "ms")
	res.add("olap_q_per_s", o.qPerS, "1/s")
	res.add("txn_per_s", t.txnPerS, "1/s")
	res.add("neworder_p50_ms", t.newOrderP50MS, "ms")
	res.add("txn_p90_ms", t.txnP90MS, "ms")
	res.add("heap_bytes_per_row", win.heap, "B")
}

// report prints the fingerprint and every metric, writes the result
// file, and prints the result line last.
func report(cfg config, res *result) error {
	fp := fingerprint(cfg)
	fmt.Println("host", fp)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	for _, p := range res.problems {
		fmt.Println("FAIL", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, max(1, res.attempted), res.failed, res.metrics})
	if err != nil {
		return err
	}
	file, err := json.MarshalIndent(map[string]any{"host": fp, "problems": res.problems, "result": json.RawMessage(line)}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fingerprint describes the host and the run: comparisons across hosts
// are meaningless.
func fingerprint(cfg config) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpu, "scale": scale, "seed": cfg.seed, "workload": cfg.workload,
		"seconds": cfg.seconds, "trace": cfg.trace,
	}
}
