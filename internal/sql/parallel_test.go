package sql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

func newSessionParallel(t *testing.T, workers int) *Session {
	t.Helper()
	e, err := core.NewEngine(core.Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return NewSession(e)
}

// TestPlannerMarksPipelines pins where the planner places Pipeline
// nodes on a parallel engine: below aggregation, below the join build,
// and below Sort — and nowhere on a serial engine.
func TestPlannerMarksPipelines(t *testing.T) {
	par := newSessionParallel(t, 4)
	setupItems(t, par)
	mustExec(t, par, `CREATE TABLE labels (cat VARCHAR, label VARCHAR, PRIMARY KEY (cat))`)

	plan := planOf(t, par, `SELECT cat, SUM(qty) FROM items WHERE qty > 5 GROUP BY cat`)
	if !strings.Contains(plan, "Pipeline(workers=4") {
		t.Fatalf("aggregate input must be pipelined on a parallel engine, got:\n%s", plan)
	}
	if !strings.Contains(plan, "HashAggregate") {
		t.Fatalf("missing aggregate:\n%s", plan)
	}

	plan = planOf(t, par, `SELECT i.id, l.label FROM items i JOIN labels l ON i.cat = l.cat`)
	if !strings.Contains(plan, "Pipeline(workers=4") {
		t.Fatalf("join build side must be pipelined, got:\n%s", plan)
	}

	plan = planOf(t, par, `SELECT id FROM items ORDER BY qty`)
	if !strings.Contains(plan, "Pipeline(workers=4") || !strings.Contains(plan, "Sort(") {
		t.Fatalf("sort input must be pipelined, got:\n%s", plan)
	}

	serial := newSessionParallel(t, 1)
	setupItems(t, serial)
	plan = planOf(t, serial, `SELECT cat, SUM(qty) FROM items GROUP BY cat`)
	if strings.Contains(plan, "Pipeline(") {
		t.Fatalf("serial engine must not mark pipelines, got:\n%s", plan)
	}
}

// loadRandom fills a table (partially merged, partially delta, NULLs in
// the group/value columns) identically in both sessions.
func loadRandom(t *testing.T, sessions []*Session, rows int) {
	t.Helper()
	for _, s := range sessions {
		mustExec(t, s, `CREATE TABLE r (id BIGINT, grp BIGINT, v BIGINT, f DOUBLE, PRIMARY KEY (id))`)
	}
	rng := rand.New(rand.NewSource(99))
	var stmts []string
	var b strings.Builder
	for i := 0; i < rows; i++ {
		if b.Len() == 0 {
			b.WriteString("INSERT INTO r VALUES ")
		} else {
			b.WriteString(", ")
		}
		grp := "NULL"
		if rng.Intn(12) != 0 {
			grp = fmt.Sprint(rng.Intn(23))
		}
		fmt.Fprintf(&b, "(%d, %s, %d, %g)", i, grp, rng.Intn(500)-250, float64(rng.Intn(100))/8)
		if (i+1)%500 == 0 {
			stmts = append(stmts, b.String())
			b.Reset()
		}
	}
	if b.Len() > 0 {
		stmts = append(stmts, b.String())
	}
	for _, s := range sessions {
		for si, stmt := range stmts {
			mustExec(t, s, stmt)
			// Merge most of the table into the column store; keep the
			// tail in the delta so the scan unions both formats.
			if si == len(stmts)*3/4 {
				if _, err := s.engine.Merge("r"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func resultKey(t *testing.T, r *Result) []string {
	t.Helper()
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(row))
		for c, v := range row {
			if v.Null {
				parts[c] = "∅"
			} else if v.Typ == types.Float64 {
				parts[c] = fmt.Sprintf("%.6g", v.F)
			} else {
				parts[c] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestParallelSQLParity runs the breaker shapes end-to-end through SQL
// on a serial vs a 4-way engine over identical random data.
func TestParallelSQLParity(t *testing.T) {
	serial := newSessionParallel(t, 1)
	par := newSessionParallel(t, 4)
	loadRandom(t, []*Session{serial, par}, 6_000)

	queries := []string{
		`SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(f) FROM r GROUP BY grp`,
		`SELECT COUNT(*), SUM(v) FROM r WHERE v > 0`,
		`SELECT grp, COUNT(*) FROM r WHERE f < 10 GROUP BY grp HAVING COUNT(*) > 5`,
		`SELECT id, v FROM r ORDER BY v, id DESC`,
		`SELECT a.id, b.v FROM r a JOIN r b ON a.grp = b.grp WHERE a.id < 40 AND b.id < 60`,
		`SELECT grp, SUM(v) AS sv FROM r GROUP BY grp ORDER BY sv DESC LIMIT 5`,
		// Computed keys and arguments: the projection runs on the workers.
		`SELECT grp + 1, v > 0, COUNT(*), SUM(v * 2), AVG(f + v), MIN(f - 1), MAX(v) FROM r GROUP BY grp + 1, v > 0`,
		`SELECT f, COUNT(*), SUM(v) FROM r WHERE v < 100 GROUP BY f`,
	}
	for _, q := range queries {
		want, err := serial.Exec(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		got, err := par.Exec(q)
		if err != nil {
			t.Fatalf("parallel %q: %v", q, err)
		}
		w, g := resultKey(t, want), resultKey(t, got)
		if len(w) == 0 {
			t.Fatalf("%q returned no rows; fixture broken", q)
		}
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("parity failed for %q:\nserial:   %v\nparallel: %v", q, w[:min(5, len(w))], g[:min(5, len(g))])
		}
	}
}

// TestParallelPreparedRebind: a prepared statement with a
// parameter-valued pushed-down predicate re-executes correctly through
// the pipelined plan.
func TestParallelPreparedRebind(t *testing.T) {
	par := newSessionParallel(t, 4)
	loadRandom(t, []*Session{par}, 3_000)
	p, err := Prepare(par.engine, `SELECT grp, COUNT(*) FROM r WHERE v > ? GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int64{-1000, 0, 100} {
		tx := par.engine.Begin()
		res, err := p.ExecTx(nil, tx, []types.Value{types.NewInt(bound)})
		if err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		var total int64
		for _, row := range res.Rows {
			total += row[1].I
		}
		// Cross-check against a direct COUNT.
		tx = par.engine.Begin()
		chk, err := Prepare(par.engine, `SELECT COUNT(*) FROM r WHERE v > ?`)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := chk.ExecTx(nil, tx, []types.Value{types.NewInt(bound)})
		if err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		if total != cres.Rows[0][0].I {
			t.Fatalf("bound %d: grouped total %d != count %d", bound, total, cres.Rows[0][0].I)
		}
	}
}
