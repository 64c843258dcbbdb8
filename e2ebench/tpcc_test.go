package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/bench"
)

var smokeScale = bench.Scale{Warehouses: 2, DistrictsPerW: 2, CustomersPerD: 20, Items: 200, InitialOrdersPerD: 30}

// TestTPCCSmoke runs each SQL TPC-C transaction over the wire at a small
// scale, then two traced terminals concurrently beside the merge driver,
// and checks the consistency conditions, across a merge and a reopen of
// the durable directory.
func TestTPCCSmoke(t *testing.T) {
	dir := t.TempDir()
	e, _, err := setup(setupOpts{sc: smokeScale, seed: 3, dir: dir, conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	term, err := newTerminal(e.conns[0], smokeScale, homeWarehouses(2, 1, 0), 3, &e.nextHist)
	if err != nil {
		t.Fatal(err)
	}
	for range 4 {
		for k := bench.TxNewOrder; k <= bench.TxStockLevel; k++ {
			if err := term.runTxn(k, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if term.failed != 0 {
		t.Fatalf("%d of %d transactions failed", term.failed, len(term.obs))
	}
	acked := term.acked
	terms, err := newTerminals(4, e)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	md := startMergeDriver(e.d, time.Millisecond, 20, tr)
	err = closedLoops(terms, 60, tr)
	if err := errors.Join(err, md.halt()); err != nil {
		t.Fatal(err)
	}
	for _, term := range terms {
		if term.failed != 0 {
			t.Fatalf("%d of %d concurrent transactions failed", term.failed, len(term.obs))
		}
		acked = append(acked, term.acked...)
	}
	if len(md.merges) == 0 {
		t.Error("the merge driver merged nothing")
	}
	q := wireQ{e.conns[0]}
	if err := checkConsistency(q, smokeScale, len(acked)); err != nil {
		t.Fatal(err)
	}
	if err := checkConsistency(q, smokeScale, len(acked)+1); err == nil {
		t.Fatal("order count off by one passed")
	}
	win := &window{acked: acked}
	res := &result{correct: true}
	if err := checkMergeInvariant(e, res, "smoke"); err != nil {
		t.Fatal(err)
	}
	if err := checkDurability(e, win, res); err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatal(res.problems)
	}
	// A broken condition 1 must be caught.
	if _, err := e.d.Exec(t.Context(), "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = 1 AND d_id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := checkConsistency(dbQ{e.d}, smokeScale, len(acked)); err == nil {
		t.Fatal("d_next_o_id ahead of max(o_id) passed")
	}
}
