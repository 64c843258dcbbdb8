// Command chbench drives the CH-benCHmark mixed workload (experiment
// E4): OLTP worker goroutines run the TPC-C transaction mix while OLAP
// goroutines cycle through the analytic query suite, all against one
// dual-format engine. The OLAP side goes through the public db API —
// each query streams through a db.Rows cursor and repeated statements
// reuse cached plans — while the OLTP side drives the engine's
// transactional API directly, exactly the dual-interface deployment the
// paper's operational-analytics model assumes. It prints the E4 table
// of docs/experiments.md: transactional throughput and analytic
// throughput as the analytic thread count grows, per concurrency mode.
//
// Usage:
//
//	chbench [-duration 5s] [-oltp 4] [-olap 0,1,2,4] [-warehouses 2]
//	        [-mode mvcc|2pl|both] [-automerge]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/db"
	"repro/internal/bench"
)

func main() {
	duration := flag.Duration("duration", 5*time.Second, "measurement window per configuration")
	oltpWorkers := flag.Int("oltp", 4, "OLTP worker goroutines")
	olapList := flag.String("olap", "0,1,2,4", "comma-separated analytic thread counts")
	warehouses := flag.Int("warehouses", 2, "CH scale: warehouses")
	mode := flag.String("mode", "both", "mvcc, 2pl, or both")
	autoMerge := flag.Bool("automerge", true, "run the delta-merge daemon during the benchmark")
	flag.Parse()

	var olaps []int
	for _, part := range strings.Split(*olapList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintln(os.Stderr, "chbench: bad -olap list:", err)
			os.Exit(1)
		}
		olaps = append(olaps, n)
	}
	var modes []db.Mode
	switch strings.ToLower(*mode) {
	case "mvcc":
		modes = []db.Mode{db.MVCC}
	case "2pl":
		modes = []db.Mode{db.TwoPL}
	default:
		modes = []db.Mode{db.MVCC, db.TwoPL}
	}

	fmt.Printf("CH-benCHmark: %d warehouses, %d OLTP workers, %v per cell\n\n",
		*warehouses, *oltpWorkers, *duration)
	fmt.Printf("%-6s %-6s %12s %12s %10s\n", "mode", "olap", "txn/s", "olap-q/s", "abort%")
	for _, m := range modes {
		for _, olap := range olaps {
			tps, qps, abortPct := runCell(m, *oltpWorkers, olap, *warehouses, *duration, *autoMerge)
			fmt.Printf("%-6s %-6d %12.0f %12.1f %9.1f%%\n", m, olap, tps, qps, abortPct)
		}
	}
}

// runCell measures one (mode, olap-threads) configuration.
func runCell(mode db.Mode, oltpWorkers, olapThreads, warehouses int, dur time.Duration, autoMerge bool) (tps, qps, abortPct float64) {
	opts := db.Options{Mode: mode, LockTimeout: 20 * time.Millisecond, MergeThreshold: 20000}
	if autoMerge {
		opts.AutoMergeEvery = 200 * time.Millisecond
	}
	d, err := db.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chbench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := d.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "chbench: close:", err)
		}
	}()
	engine := d.Engine()
	if err := bench.CreateTables(engine); err != nil {
		fmt.Fprintln(os.Stderr, "chbench:", err)
		os.Exit(1)
	}
	sc := bench.DefaultScale()
	sc.Warehouses = warehouses
	if err := bench.Load(engine, sc, 1); err != nil {
		fmt.Fprintln(os.Stderr, "chbench:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	stop := make(chan struct{})
	var hist atomic.Int64
	hist.Store(1 << 20)
	var committed, aborted, olapDone atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < oltpWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := &bench.Worker{E: engine, Scale: sc, Rng: rand.New(rand.NewSource(int64(g))), NextHist: &hist}
			for {
				select {
				case <-stop:
					committed.Add(int64(w.Committed))
					aborted.Add(int64(w.Aborted))
					return
				default:
				}
				if err := w.RunOne(); err != nil {
					fmt.Fprintln(os.Stderr, "chbench: oltp:", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < olapThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := bench.Queries()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := runAnalytic(ctx, d, qs[i%len(qs)].SQL); err == nil {
					olapDone.Add(1)
				}
				i++
			}
		}(g)
	}
	time.Sleep(dur)
	close(stop)
	cancel() // unblock any in-flight analytic scan promptly
	wg.Wait()
	secs := dur.Seconds()
	c, a := float64(committed.Load()), float64(aborted.Load())
	if c+a > 0 {
		abortPct = 100 * a / (c + a)
	}
	return c / secs, float64(olapDone.Load()) / secs, abortPct
}

// runAnalytic executes one analytic query through the public API,
// streaming the result batch-at-a-time.
func runAnalytic(ctx context.Context, d *db.DB, query string) error {
	rows, err := d.Query(ctx, query)
	if err != nil {
		return err
	}
	defer rows.Close()
	for {
		b, err := rows.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}
