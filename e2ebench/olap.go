package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/db"
	"repro/internal/bench"
)

// floatRelTol is the relative tolerance for float results. Float
// SUM/AVG can differ in the last bits between worker counts and between
// the delta and merged layouts; integers and strings match exactly.
const floatRelTol = 1e-9

// chOrder describes each CH query's ORDER BY for result comparison: the
// output columns it sorts on and whether a LIMIT may cut a tie group.
// Rows tied on those columns may come in any order, and which tied rows
// a LIMIT keeps is unspecified (Q2 ranks items whose order counts are
// all 0; Q13 has ties on c_last).
var chOrder = map[int]struct {
	keys  []int
	limit bool
}{
	1: {[]int{0}, false}, 2: {[]int{1}, true}, 3: {[]int{3}, true},
	4: {[]int{0}, false}, 5: {[]int{1}, false}, 6: {nil, false},
	7: {[]int{1}, true}, 8: {[]int{1}, false}, 9: {[]int{0}, false},
	10: {[]int{1}, false}, 11: {[]int{2}, true}, 12: {[]int{1}, true},
	13: {[]int{0}, true}, 14: {[]int{2}, false}, 15: {[]int{1}, true},
	16: {[]int{1}, false}, 17: {[]int{0}, false},
}

// querier runs a statement and returns every row.
type querier interface {
	rows(text string, args ...any) ([][]any, error)
}

type wireQ struct{ c *client.Conn }

func (q wireQ) rows(text string, args ...any) ([][]any, error) {
	out, _, err := queryWire(q.c, text, true, args...)
	return out, err
}

type dbQ struct{ d *db.DB }

func (q dbQ) rows(text string, args ...any) ([][]any, error) {
	r, err := q.d.Query(context.Background(), text, args...)
	if err != nil {
		return nil, err
	}
	var out [][]any
	n := len(r.Columns())
	for r.Next() {
		row, ptrs := make([]any, n), make([]any, n)
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := r.Scan(ptrs...); err != nil {
			r.Close()
			return nil, err
		}
		out = append(out, row)
	}
	if err := r.Err(); err != nil {
		r.Close()
		return nil, err
	}
	return out, r.Close()
}

// queryWire sends text over c and drains every row, keeping them when
// capture is set. The result carries the server's lane accounting.
func queryWire(c *client.Conn, text string, capture bool, args ...any) ([][]any, client.Result, error) {
	r, err := c.Query(text, args...)
	if err != nil {
		return nil, client.Result{}, err
	}
	var out [][]any
	n := len(r.Columns())
	for r.Next() {
		if !capture {
			continue
		}
		row, ptrs := make([]any, n), make([]any, n)
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := r.Scan(ptrs...); err != nil {
			r.Close()
			return nil, client.Result{}, err
		}
		out = append(out, row)
	}
	err = r.Close()
	return out, r.Result(), err
}

// queryObs is one analytic query execution.
type queryObs struct {
	q    int // index into bench.Queries()
	lat  time.Duration
	wait time.Duration // server queue wait
	exec time.Duration // server execution time
}

// chStream runs the CH suite in order over one connection, closed
// loop, until passes are done or stop is closed. With capture set, the
// results of the first and the last pass are kept in got.
type chStream struct {
	c       *client.Conn
	tr      *tracer
	passes  int             // 0: until stop
	stop    <-chan struct{} // nil: run passes
	capture bool

	got    [2][][][]any // [first | last pass][query] rows
	obs    []queryObs
	failed int
}

func (s *chStream) run() error {
	qs := bench.Queries()
	s.got = [2][][][]any{make([][][]any, len(qs)), make([][][]any, len(qs))}
	for pass := 0; s.passes == 0 || pass < s.passes; pass++ {
		for qi, q := range qs {
			if s.stop != nil {
				select {
				case <-s.stop:
					return nil
				default:
				}
			}
			capture := s.capture && (pass == 0 || pass == s.passes-1)
			req := s.tr.id()
			start := time.Now()
			rows, res, err := queryWire(s.c, q.SQL, capture)
			end := time.Now()
			if err != nil {
				if isLoadShed(err) {
					s.failed++
					continue
				}
				return fmt.Errorf("Q%d: %w", q.ID, err)
			}
			s.tr.record(req, 0, req, fmt.Sprintf("query.q%02d", q.ID), start, end)
			s.tr.stmt(req, req, "select", start, end, res.QueueWait, res.ExecTime)
			s.obs = append(s.obs, queryObs{q: qi, lat: end.Sub(start), wait: res.QueueWait, exec: res.ExecTime})
			if capture {
				if pass == 0 {
					s.got[0][qi] = rows
				}
				if pass == s.passes-1 {
					s.got[1][qi] = rows
				}
			}
		}
	}
	return nil
}

// isLoadShed reports the server refusing a statement under load.
func isLoadShed(err error) bool { return client.IsBusy(err) || client.IsQueueTimeout(err) }

// olapFigures are the analytic end-to-end metrics of a set of queries.
type olapFigures struct {
	geomeanMS, p95MS, qPerS float64
	perQueryMS              []float64 // median client latency per query
}

func summarizeOLAP(obs []queryObs, window time.Duration) olapFigures {
	nq := len(bench.Queries())
	per := make([][]float64, nq)
	var all []float64
	for _, o := range obs {
		per[o.q] = append(per[o.q], ms(o.lat))
		all = append(all, ms(o.lat))
	}
	f := olapFigures{perQueryMS: make([]float64, nq)}
	for i := range per {
		f.perQueryMS[i] = median(per[i])
	}
	f.geomeanMS = geomean(f.perQueryMS)
	f.p95MS = quantile(all, 0.95)
	f.qPerS = float64(len(obs)) / window.Seconds()
	return f
}

// chReference runs every CH query through q.
func chReference(q querier) ([][][]any, error) {
	var out [][][]any
	for _, cq := range bench.Queries() {
		rows, err := q.rows(cq.SQL)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", cq.ID, err)
		}
		out = append(out, rows)
	}
	return out, nil
}

// compareCH checks got against want query by query.
func compareCH(want, got [][][]any) error {
	for i, q := range bench.Queries() {
		if err := compareResult(q.ID, want[i], got[i]); err != nil {
			return fmt.Errorf("Q%d: %w", q.ID, err)
		}
	}
	return nil
}

// compareResult compares two results of CH query id, ignoring order
// among ORDER BY ties and which tied rows a LIMIT keeps.
func compareResult(id int, want, got [][]any) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	ord := chOrder[id]
	wg, gg := tieGroups(want, ord.keys), tieGroups(got, ord.keys)
	if len(wg) != len(gg) {
		return fmt.Errorf("%d ORDER BY groups, want %d", len(gg), len(wg))
	}
	for g := range wg {
		w, h := wg[g], gg[g]
		if len(w) != len(h) {
			return fmt.Errorf("tie group %d has %d rows, want %d", g, len(h), len(w))
		}
		last := g == len(wg)-1
		for i := range w {
			cols := len(w[i])
			if last && ord.limit {
				// The LIMIT cut this group: only the sort key is defined.
				cols = 0
			}
			for c := 0; c < cols; c++ {
				if !valueEq(w[i][c], h[i][c]) {
					return fmt.Errorf("row %v, want %v", h[i], w[i])
				}
			}
			for _, c := range ord.keys {
				if !valueEq(w[i][c], h[i][c]) {
					return fmt.Errorf("row %v, want %v", h[i], w[i])
				}
			}
		}
	}
	return nil
}

// tieGroups splits rows into runs of equal sort key and orders each run
// canonically.
func tieGroups(rows [][]any, keys []int) [][][]any {
	var groups [][][]any
	for i, r := range rows {
		if i == 0 || !keysEq(rows[i-1], r, keys) {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], r)
	}
	for _, g := range groups {
		sort.SliceStable(g, func(a, b int) bool { return canon(g[a]) < canon(g[b]) })
	}
	return groups
}

func keysEq(a, b []any, keys []int) bool {
	if keys == nil {
		return true // no ORDER BY: the whole result is one group
	}
	for _, c := range keys {
		if !valueEq(a[c], b[c]) {
			return false
		}
	}
	return true
}

func valueEq(a, b any) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok && bok {
		return fa == fb || math.Abs(fa-fb) <= floatRelTol*math.Max(math.Abs(fa), math.Abs(fb))
	}
	return a == b
}

// canon renders a row with floats rounded well inside floatRelTol, for
// canonical ordering and digests.
func canon(row []any) string {
	var b strings.Builder
	for _, v := range row {
		switch x := v.(type) {
		case float64:
			b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
		case nil:
			b.WriteString("NULL")
		default:
			fmt.Fprint(&b, x)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// digestCH hashes the results with the limit-cut tie groups reduced to
// their sort keys, so it is independent of tie order.
func digestCH(res [][][]any) string {
	h := sha256.New()
	for i, q := range bench.Queries() {
		ord := chOrder[q.ID]
		groups := tieGroups(res[i], ord.keys)
		for g, rows := range groups {
			for _, r := range rows {
				if g == len(groups)-1 && ord.limit {
					key := make([]any, len(ord.keys))
					for k, c := range ord.keys {
						key[k] = r[c]
					}
					r = key
				}
				fmt.Fprintf(h, "%d:%s\n", q.ID, canon(r))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
