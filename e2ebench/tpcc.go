package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/bench"
)

// The TPC-C transactions as SQL, following internal/bench/txns.go. Each
// runs as BEGIN … COMMIT over prepared statements.
var tpccSQL = map[string]string{
	"d_next":    "SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
	"d_bump":    "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?",
	"o_ins":     "INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_entry_d, o_carrier_id, o_ol_cnt) VALUES (?, ?, ?, ?, ?, ?, ?)",
	"no_ins":    "INSERT INTO new_order (no_w_id, no_d_id, no_o_id) VALUES (?, ?, ?)",
	"i_price":   "SELECT i_price FROM item WHERE i_id = ?",
	"s_qty":     "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?",
	"s_upd":     "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?",
	"ol_ins":    "INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
	"w_pay":     "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
	"d_pay":     "UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?",
	"c_get":     "SELECT c_last, c_credit, c_balance FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
	"c_pay":     "UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
	"h_ins":     "INSERT INTO history (h_id, h_c_w_id, h_c_d_id, h_c_id, h_amount, h_date) VALUES (?, ?, ?, ?, ?, ?)",
	"o_last":    "SELECT MAX(o_id) FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ?",
	"ol_get":    "SELECT ol_i_id, ol_quantity, ol_amount FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
	"no_min":    "SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = ? AND no_d_id = ?",
	"no_del":    "DELETE FROM new_order WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?",
	"o_cust":    "SELECT o_c_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
	"o_carrier": "UPDATE orders SET o_carrier_id = ? WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
	"ol_deliv":  "UPDATE order_line SET ol_delivery_d = ? WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
	"ol_sum":    "SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
	"c_deliv":   "UPDATE customer SET c_balance = c_balance + ? WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
	"low_stock": "SELECT s_i_id FROM order_line JOIN stock ON ol_supply_w_id = s_w_id AND ol_i_id = s_i_id WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id >= ? AND s_w_id = ? AND s_quantity < ?",
}

// stmtKind classifies a statement for the per-kind latency metrics.
func stmtKind(name string) string {
	switch tpccSQL[name][:6] {
	case "UPDATE":
		return "update"
	case "INSERT":
		return "insert"
	case "DELETE":
		return "delete"
	}
	return "select"
}

// txnObs is one TPC-C transaction.
type txnObs struct {
	kind   bench.TxKind
	lat    time.Duration // BEGIN sent to COMMIT acknowledged (from due time when open loop)
	commit time.Duration // the COMMIT round trip
	ok     bool
}

// stmtObs is one statement inside a transaction (traced run only).
type stmtObs struct {
	kind       string // select, update, insert, delete
	lat        time.Duration
	wait, exec time.Duration
}

// newOrderKey identifies an acknowledged NewOrder.
type newOrderKey struct{ w, d, o int64 }

// terminal is one TPC-C client: a connection bound to its home
// warehouses, following TPC-C's terminal model.
type terminal struct {
	c        *client.Conn
	stmts    map[string]*client.Stmt
	sc       bench.Scale
	homes    []int64
	rng      *rand.Rand
	nextHist *atomic.Int64
	tr       *tracer

	obs     []txnObs
	stmtObs []stmtObs
	acked   []newOrderKey
	failed  int

	req    uint64 // current transaction's span ID
	mix    []bench.TxKind
	olCnts []int
}

// The transaction mix and the order sizes are dealt from shuffled decks
// (as TPC-C allows for the mix), so every 100 transactions hold exactly
// 45/43/4/4/4 of the five kinds and every 11 NewOrders one order of each
// size from 5 to 15 lines. Runs with different seeds then differ in
// order, not in composition.
var mixDeck, olCntDeck = func() ([]bench.TxKind, []int) {
	var mix []bench.TxKind
	for k, n := range []int{45, 43, 4, 4, 4} {
		for range n {
			mix = append(mix, bench.TxKind(k))
		}
	}
	var ol []int
	for n := 5; n <= 15; n++ {
		ol = append(ol, n)
	}
	return mix, ol
}()

// deal draws the next card of a shuffled deck, reshuffling a full deck
// when it runs out.
func deal[T any](rng *rand.Rand, deck *[]T, full []T) T {
	if len(*deck) == 0 {
		*deck = append((*deck)[:0], full...)
		rng.Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	c := (*deck)[len(*deck)-1]
	*deck = (*deck)[:len(*deck)-1]
	return c
}

func newTerminal(c *client.Conn, sc bench.Scale, homes []int64, seed int64, nextHist *atomic.Int64) (*terminal, error) {
	t := &terminal{c: c, stmts: make(map[string]*client.Stmt), sc: sc, homes: homes,
		rng: rand.New(rand.NewSource(seed)), nextHist: nextHist}
	for name, text := range tpccSQL {
		st, err := c.Prepare(text)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", name, err)
		}
		t.stmts[name] = st
	}
	return t, nil
}

// homeWarehouses deals warehouses 1..n round-robin to k terminals.
func homeWarehouses(n, k, i int) []int64 {
	var ws []int64
	for w := i + 1; w <= n; w += k {
		ws = append(ws, int64(w))
	}
	return ws
}

func (t *terminal) wd() (int64, int64) {
	return t.homes[t.rng.Intn(len(t.homes))], int64(1 + t.rng.Intn(t.sc.DistrictsPerW))
}

// exec runs a prepared non-query.
func (t *terminal) exec(name string, args ...any) error {
	start := time.Now()
	res, err := t.stmts[name].Exec(args...)
	t.note(name, start, res)
	return err
}

// get runs a prepared query and scans its first row into dest; it
// reports whether there was a row.
func (t *terminal) get(name string, args []any, dest ...any) (bool, error) {
	start := time.Now()
	r, err := t.stmts[name].Query(args...)
	if err != nil {
		return false, err
	}
	found := r.Next()
	if found {
		err = r.Scan(dest...)
	}
	err = errors.Join(err, r.Close())
	t.note(name, start, r.Result())
	return found, err
}

// note records a statement in the traced run.
func (t *terminal) note(name string, start time.Time, res client.Result) {
	if t.tr == nil {
		return
	}
	end := time.Now()
	kind := stmtKind(name)
	t.tr.stmt(t.req, t.req, kind, start, end, res.QueueWait, res.ExecTime)
	t.stmtObs = append(t.stmtObs, stmtObs{kind: kind, lat: end.Sub(start), wait: res.QueueWait, exec: res.ExecTime})
}

// control sends BEGIN, COMMIT or ROLLBACK.
func (t *terminal) control(text string) error {
	start := time.Now()
	_, err := t.c.Exec(text)
	if t.tr != nil {
		t.tr.record(t.tr.id(), t.req, t.req, "stmt."+strings.ToLower(text), start, time.Now())
	}
	return err
}

// runTxn runs one transaction of kind, timed from due (or from its own
// start when due is zero). A failed transaction is rolled back and
// counted; only errors that leave the connection unusable are returned.
func (t *terminal) runTxn(kind bench.TxKind, due time.Time) error {
	t.req = t.tr.id()
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	var no newOrderKey
	err := t.control("BEGIN")
	if err == nil {
		switch kind {
		case bench.TxNewOrder:
			no, err = t.newOrder()
		case bench.TxPayment:
			err = t.payment()
		case bench.TxOrderStatus:
			err = t.orderStatus()
		case bench.TxDelivery:
			err = t.delivery()
		case bench.TxStockLevel:
			err = t.stockLevel()
		}
	}
	var commit time.Duration
	if err == nil {
		cs := time.Now()
		err = t.control("COMMIT")
		commit = time.Since(cs)
	} else if rbErr := t.control("ROLLBACK"); rbErr != nil {
		return fmt.Errorf("%s rollback after %v: %w", kind, err, rbErr)
	}
	end := time.Now()
	t.tr.record(t.req, 0, t.req, "txn."+kind.String(), start, end)
	t.obs = append(t.obs, txnObs{kind: kind, lat: end.Sub(due), commit: commit, ok: err == nil})
	if err != nil {
		t.failed++
		if errors.Is(err, client.ErrConnBroken) {
			return err
		}
		return nil
	}
	if kind == bench.TxNewOrder {
		t.acked = append(t.acked, no)
	}
	return nil
}

func (t *terminal) newOrder() (newOrderKey, error) {
	w, d := t.wd()
	c := int64(1 + t.rng.Intn(t.sc.CustomersPerD))
	var o int64
	if ok, err := t.get("d_next", []any{w, d}, &o); err != nil || !ok {
		return newOrderKey{}, orMissing(err, ok, "district")
	}
	if err := t.exec("d_bump", w, d); err != nil {
		return newOrderKey{}, err
	}
	olCnt := deal(t.rng, &t.olCnts, olCntDeck)
	if err := t.exec("o_ins", w, d, o, c, o*1000, int64(0), int64(olCnt)); err != nil {
		return newOrderKey{}, err
	}
	if err := t.exec("no_ins", w, d, o); err != nil {
		return newOrderKey{}, err
	}
	for ol := 1; ol <= olCnt; ol++ {
		i := int64(1 + t.rng.Intn(t.sc.Items))
		qty := int64(1 + t.rng.Intn(10))
		var price float64
		if ok, err := t.get("i_price", []any{i}, &price); err != nil || !ok {
			return newOrderKey{}, orMissing(err, ok, "item")
		}
		var sq int64
		if ok, err := t.get("s_qty", []any{w, i}, &sq); err != nil || !ok {
			return newOrderKey{}, orMissing(err, ok, "stock")
		}
		sq -= qty
		if sq < 10 {
			sq += 91
		}
		if err := t.exec("s_upd", sq, qty, w, i); err != nil {
			return newOrderKey{}, err
		}
		if err := t.exec("ol_ins", w, d, o, int64(ol), i, w, qty, float64(qty)*price, int64(0)); err != nil {
			return newOrderKey{}, err
		}
	}
	return newOrderKey{w, d, o}, nil
}

func (t *terminal) payment() error {
	w, d := t.wd()
	c := int64(1 + t.rng.Intn(t.sc.CustomersPerD))
	amount := 1 + t.rng.Float64()*4999
	if err := t.exec("w_pay", amount, w); err != nil {
		return err
	}
	if err := t.exec("d_pay", amount, w, d); err != nil {
		return err
	}
	var last, credit string
	var bal float64
	if ok, err := t.get("c_get", []any{w, d, c}, &last, &credit, &bal); err != nil || !ok {
		return orMissing(err, ok, "customer")
	}
	if err := t.exec("c_pay", amount, amount, w, d, c); err != nil {
		return err
	}
	h := t.nextHist.Add(1)
	return t.exec("h_ins", h, w, d, c, amount, h)
}

func (t *terminal) orderStatus() error {
	w, d := t.wd()
	c := int64(1 + t.rng.Intn(t.sc.CustomersPerD))
	var last, credit string
	var bal float64
	if ok, err := t.get("c_get", []any{w, d, c}, &last, &credit, &bal); err != nil || !ok {
		return orMissing(err, ok, "customer")
	}
	var o any
	if _, err := t.get("o_last", []any{w, d, c}, &o); err != nil || o == nil {
		return err // a customer with no orders is fine
	}
	var item, qty int64
	var amount float64
	_, err := t.get("ol_get", []any{w, d, o}, &item, &qty, &amount)
	return err
}

func (t *terminal) delivery() error {
	w, d := t.wd()
	carrier := int64(1 + t.rng.Intn(10))
	var o any
	if _, err := t.get("no_min", []any{w, d}, &o); err != nil || o == nil {
		return err // nothing to deliver
	}
	if err := t.exec("no_del", w, d, o); err != nil {
		return err
	}
	var c int64
	if ok, err := t.get("o_cust", []any{w, d, o}, &c); err != nil || !ok {
		return orMissing(err, ok, "order")
	}
	if err := t.exec("o_carrier", carrier, w, d, o); err != nil {
		return err
	}
	if err := t.exec("ol_deliv", o.(int64)*1000+1, w, d, o); err != nil {
		return err
	}
	var total float64
	if _, err := t.get("ol_sum", []any{w, d, o}, &total); err != nil {
		return err
	}
	return t.exec("c_deliv", total, w, d, c)
}

func (t *terminal) stockLevel() error {
	w, d := t.wd()
	threshold := int64(10 + t.rng.Intn(11))
	var next int64
	if ok, err := t.get("d_next", []any{w, d}, &next); err != nil || !ok {
		return orMissing(err, ok, "district")
	}
	start := time.Now()
	r, err := t.stmts["low_stock"].Query(w, d, next-20, w, threshold)
	if err != nil {
		return err
	}
	low := map[int64]bool{}
	for r.Next() {
		var i int64
		if err := r.Scan(&i); err != nil {
			r.Close()
			return err
		}
		low[i] = true
	}
	err = r.Close()
	t.note("low_stock", start, r.Result())
	return err
}

func orMissing(err error, ok bool, what string) error {
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%s row missing", what)
	}
	return nil
}

// closedLoop runs n transactions back to back.
func (t *terminal) closedLoop(n int) error {
	for range n {
		if err := t.runTxn(deal(t.rng, &t.mix, mixDeck), time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// openLoop offers n transactions at rate per second from start; each is
// timed from its due time, and lags records how late each began.
func (t *terminal) openLoop(n int, rate float64, start time.Time) (lags []time.Duration, err error) {
	for i := range n {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags = append(lags, max(0, time.Since(due)))
		if err := t.runTxn(deal(t.rng, &t.mix, mixDeck), due); err != nil {
			return lags, err
		}
	}
	return lags, nil
}

// oltpFigures are the transactional end-to-end metrics.
type oltpFigures struct{ txnPerS, newOrderP50MS, txnP90MS float64 }

func summarizeOLTP(obs []txnObs, window time.Duration) oltpFigures {
	var all, no []float64
	for _, o := range obs {
		if !o.ok {
			continue
		}
		all = append(all, ms(o.lat))
		if o.kind == bench.TxNewOrder {
			no = append(no, ms(o.lat))
		}
	}
	return oltpFigures{
		txnPerS:       float64(len(all)) / window.Seconds(),
		newOrderP50MS: median(no),
		txnP90MS:      quantile(all, 0.90),
	}
}

// checkConsistency checks TPC-C consistency conditions 1–3 and that the
// order count equals the initial orders plus the acknowledged NewOrders.
func checkConsistency(q querier, sc bench.Scale, ackedNewOrders int) error {
	type wd struct{ w, d int64 }
	byWD := func(text string) (map[wd]any, error) {
		rows, err := q.rows(text)
		if err != nil {
			return nil, err
		}
		m := make(map[wd]any, len(rows))
		for _, r := range rows {
			m[wd{r[0].(int64), r[1].(int64)}] = r[2]
		}
		return m, nil
	}
	next, err := byWD("SELECT d_w_id, d_id, d_next_o_id FROM district")
	if err != nil {
		return err
	}
	maxO, err := byWD("SELECT o_w_id, o_d_id, MAX(o_id) FROM orders GROUP BY o_w_id, o_d_id")
	if err != nil {
		return err
	}
	olCnt, err := byWD("SELECT o_w_id, o_d_id, SUM(o_ol_cnt) FROM orders GROUP BY o_w_id, o_d_id")
	if err != nil {
		return err
	}
	lines, err := byWD("SELECT ol_w_id, ol_d_id, COUNT(*) FROM order_line GROUP BY ol_w_id, ol_d_id")
	if err != nil {
		return err
	}
	if len(next) != sc.Warehouses*sc.DistrictsPerW {
		return fmt.Errorf("%d districts, want %d", len(next), sc.Warehouses*sc.DistrictsPerW)
	}
	for k, n := range next {
		if m, ok := maxO[k].(int64); !ok || n.(int64)-1 != m {
			return fmt.Errorf("district %v: d_next_o_id-1 = %d, max(o_id) = %v", k, n.(int64)-1, maxO[k])
		}
		if c, ok := olCnt[k].(int64); !ok || lines[k] != c {
			return fmt.Errorf("district %v: sum(o_ol_cnt) = %v, count(order_line) = %v", k, olCnt[k], lines[k])
		}
	}
	wytd, err := q.rows("SELECT w_id, w_ytd FROM warehouse")
	if err != nil {
		return err
	}
	dytd, err := q.rows("SELECT d_w_id, SUM(d_ytd) FROM district GROUP BY d_w_id")
	if err != nil {
		return err
	}
	sums := make(map[int64]float64)
	for _, r := range dytd {
		sums[r[0].(int64)] = r[1].(float64)
	}
	for _, r := range wytd {
		w, y := r[0].(int64), r[1].(float64)
		if math.Abs(y-sums[w]) > 1e-6*math.Max(1, math.Abs(y)) {
			return fmt.Errorf("warehouse %d: w_ytd = %v, sum(d_ytd) = %v", w, y, sums[w])
		}
	}
	cnt, err := q.rows("SELECT COUNT(*) FROM orders")
	if err != nil {
		return err
	}
	want := sc.Warehouses*sc.DistrictsPerW*sc.InitialOrdersPerD + ackedNewOrders
	if got := int(cnt[0][0].(int64)); got != want {
		return fmt.Errorf("count(orders) = %d, want %d initial + %d acknowledged", got, want-ackedNewOrders, ackedNewOrders)
	}
	return nil
}

// checkAcked checks that every acknowledged NewOrder is present.
func checkAcked(q querier, sc bench.Scale, acked []newOrderKey) error {
	rows, err := q.rows("SELECT o_w_id, o_d_id, o_id FROM orders WHERE o_id > ?", int64(sc.InitialOrdersPerD))
	if err != nil {
		return err
	}
	have := make(map[newOrderKey]bool, len(rows))
	for _, r := range rows {
		have[newOrderKey{r[0].(int64), r[1].(int64), r[2].(int64)}] = true
	}
	for _, k := range acked {
		if !have[k] {
			return fmt.Errorf("acknowledged NewOrder %+v is missing", k)
		}
	}
	return nil
}
