package sql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	e, err := core.NewEngine(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return NewSession(e)
}

func mustExec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	r, err := s.Exec(q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return r
}

func setupItems(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE items (id BIGINT, cat VARCHAR, qty BIGINT, price DOUBLE, PRIMARY KEY (id))`)
	mustExec(t, s, `INSERT INTO items VALUES
		(1, 'fruit', 10, 1.5),
		(2, 'fruit', 20, 2.5),
		(3, 'veg', 30, 0.5),
		(4, 'veg', 40, 1.0),
		(5, 'meat', 50, 9.0)`)
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s', 3.14 FROM t -- comment\nWHERE x<>1")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[3] != "it's" || kinds[3] != TokString {
		t.Fatalf("string literal = %q", texts[3])
	}
	if texts[5] != "3.14" || kinds[5] != TokNumber {
		t.Fatalf("number = %q", texts[5])
	}
	joined := strings.Join(texts, " ")
	if strings.Contains(joined, "comment") {
		t.Fatal("comment not skipped")
	}
	if texts[len(texts)-3] != "<>" {
		t.Fatalf("<> lexing: %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Fatal("unterminated string")
	}
	if _, err := Lex("a ! b"); err == nil {
		t.Fatal("bare !")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Fatal("bad char")
	}
}

func TestCreateInsertSelect(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `SELECT id, cat, qty FROM items ORDER BY id`)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][1].S != "fruit" || r.Rows[4][2].I != 50 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Schema.Cols[1].Name != "cat" {
		t.Fatalf("schema names = %v", r.Schema.Cols)
	}
}

func TestSelectStar(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `SELECT * FROM items WHERE id = 3`)
	if len(r.Rows) != 1 || len(r.Rows[0]) != 4 {
		t.Fatalf("star = %v", r.Rows)
	}
	if r.Rows[0][1].S != "veg" {
		t.Fatal("star content")
	}
}

func TestWherePredicates(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	cases := []struct {
		q    string
		want int
	}{
		{`SELECT id FROM items WHERE qty > 20`, 3},
		{`SELECT id FROM items WHERE qty >= 20 AND qty <= 40`, 3},
		{`SELECT id FROM items WHERE cat = 'fruit'`, 2},
		{`SELECT id FROM items WHERE cat <> 'fruit'`, 3},
		{`SELECT id FROM items WHERE cat = 'fruit' OR qty = 50`, 3},
		{`SELECT id FROM items WHERE NOT cat = 'fruit'`, 3},
		{`SELECT id FROM items WHERE cat IN ('fruit', 'meat')`, 3},
		{`SELECT id FROM items WHERE cat NOT IN ('fruit', 'meat')`, 2},
		{`SELECT id FROM items WHERE cat LIKE 'f%'`, 2},
		{`SELECT id FROM items WHERE cat NOT LIKE 'f%'`, 3},
		{`SELECT id FROM items WHERE price IS NOT NULL`, 5},
		{`SELECT id FROM items WHERE price IS NULL`, 0},
		{`SELECT id FROM items WHERE qty * 2 > 60`, 2},
		{`SELECT id FROM items WHERE 15 < qty`, 4},
	}
	for _, tc := range cases {
		r := mustExec(t, s, tc.q)
		if len(r.Rows) != tc.want {
			t.Errorf("%s: got %d rows, want %d", tc.q, len(r.Rows), tc.want)
		}
	}
}

func TestProjectionExpressions(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `SELECT id, qty * 2 AS dqty, price + 0.5 FROM items WHERE id = 1`)
	if r.Rows[0][1].I != 20 {
		t.Fatalf("computed = %v", r.Rows[0])
	}
	if r.Rows[0][2].F != 2.0 {
		t.Fatalf("float compute = %v", r.Rows[0])
	}
	if r.Schema.Cols[1].Name != "dqty" {
		t.Fatal("alias")
	}
}

func TestAggregates(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty), AVG(qty) FROM items`)
	row := r.Rows[0]
	if row[0].I != 5 || row[1].I != 150 || row[2].I != 10 || row[3].I != 50 || row[4].F != 30 {
		t.Fatalf("aggregates = %v", row)
	}
}

// TestAggregateComputedInputs: computed group keys and aggregate
// arguments run through a projection below the aggregate; bare columns
// feed it directly.
func TestAggregateComputedInputs(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `SELECT cat, SUM(qty * 2), MAX(price + 1), MIN(cat) FROM items GROUP BY cat ORDER BY cat`)
	want := []string{"fruit 60 3.5 fruit", "meat 100 10 meat", "veg 140 2 veg"}
	for i, row := range r.Rows {
		if got := fmt.Sprintf("%s %d %g %s", row[0].S, row[1].I, row[2].F, row[3].S); i >= len(want) || got != want[i] {
			t.Fatalf("row %d = %q, want %v", i, got, want)
		}
	}
	r = mustExec(t, s, `SELECT qty > 25, COUNT(*), SUM(price) FROM items GROUP BY qty > 25 ORDER BY qty > 25`)
	if len(r.Rows) != 2 || r.Rows[0][1].I != 2 || r.Rows[0][2].F != 4 || r.Rows[1][1].I != 3 || r.Rows[1][2].F != 10.5 {
		t.Fatalf("computed bool key: %v", r.Rows)
	}
	if plan := planOf(t, s, `SELECT cat, SUM(qty * 2) FROM items GROUP BY cat`); strings.Count(plan, "Projection(") != 2 {
		t.Fatalf("computed argument must be projected below the aggregate:\n%s", plan)
	}
	if plan := planOf(t, s, `SELECT cat, SUM(qty) FROM items GROUP BY cat`); strings.Count(plan, "Projection(") != 1 {
		t.Fatalf("bare columns need no projection:\n%s", plan)
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `
		SELECT cat, COUNT(*) AS n, SUM(qty) AS total
		FROM items
		GROUP BY cat
		HAVING SUM(qty) >= 30
		ORDER BY total DESC`)
	if len(r.Rows) != 3 {
		t.Fatalf("groups = %v", r.Rows)
	}
	if r.Rows[0][0].S != "veg" || r.Rows[0][2].I != 70 {
		t.Fatalf("first group = %v", r.Rows[0])
	}
	if r.Rows[1][0].S != "meat" || r.Rows[2][0].S != "fruit" {
		t.Fatalf("order = %v", r.Rows)
	}
}

func TestGroupByQualifiedMatchesUnqualified(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `SELECT items.cat, COUNT(*) FROM items GROUP BY cat ORDER BY cat`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `SELECT id FROM items ORDER BY qty DESC LIMIT 2 OFFSET 1`)
	if len(r.Rows) != 2 || r.Rows[0][0].I != 4 || r.Rows[1][0].I != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestJoin(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	mustExec(t, s, `CREATE TABLE cats (name VARCHAR, label VARCHAR, PRIMARY KEY (name))`)
	mustExec(t, s, `INSERT INTO cats VALUES ('fruit', 'Fresh Fruit'), ('veg', 'Vegetables')`)
	r := mustExec(t, s, `
		SELECT i.id, c.label FROM items i
		JOIN cats c ON i.cat = c.name
		ORDER BY i.id`)
	if len(r.Rows) != 4 {
		t.Fatalf("join rows = %v", r.Rows)
	}
	if r.Rows[0][1].S != "Fresh Fruit" {
		t.Fatalf("join content = %v", r.Rows[0])
	}
	// LEFT JOIN keeps meat with NULL label.
	r = mustExec(t, s, `
		SELECT i.id, c.label FROM items i
		LEFT JOIN cats c ON i.cat = c.name
		ORDER BY i.id`)
	if len(r.Rows) != 5 {
		t.Fatalf("left join rows = %d", len(r.Rows))
	}
	if !r.Rows[4][1].Null {
		t.Fatal("unmatched left row should be NULL-padded")
	}
}

func TestJoinWithAggregation(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	mustExec(t, s, `CREATE TABLE cats (name VARCHAR, label VARCHAR, PRIMARY KEY (name))`)
	mustExec(t, s, `INSERT INTO cats VALUES ('fruit', 'F'), ('veg', 'V'), ('meat', 'M')`)
	r := mustExec(t, s, `
		SELECT c.label, SUM(i.qty) AS total
		FROM items i JOIN cats c ON i.cat = c.name
		GROUP BY c.label
		ORDER BY total DESC`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0].S != "V" || r.Rows[0][1].I != 70 {
		t.Fatalf("top group = %v", r.Rows[0])
	}
}

func TestUpdateDelete(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `UPDATE items SET qty = qty + 5 WHERE cat = 'fruit'`)
	if r.Affected != 2 {
		t.Fatalf("update affected = %d", r.Affected)
	}
	r = mustExec(t, s, `SELECT SUM(qty) FROM items`)
	if r.Rows[0][0].I != 160 {
		t.Fatalf("post-update sum = %v", r.Rows[0])
	}
	r = mustExec(t, s, `DELETE FROM items WHERE qty >= 40`)
	if r.Affected != 2 {
		t.Fatalf("delete affected = %d", r.Affected)
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM items`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("post-delete count = %v", r.Rows[0])
	}
}

func TestExplicitTransactions(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE items SET qty = 999 WHERE id = 1`)
	if !s.InTxn() {
		t.Fatal("txn should be open")
	}
	// Another session does not see the uncommitted write.
	s2 := NewSession(s.engine)
	r := mustExec(t, s2, `SELECT qty FROM items WHERE id = 1`)
	if r.Rows[0][0].I != 10 {
		t.Fatal("dirty read")
	}
	mustExec(t, s, `ROLLBACK`)
	r = mustExec(t, s, `SELECT qty FROM items WHERE id = 1`)
	if r.Rows[0][0].I != 10 {
		t.Fatal("rollback failed")
	}
	// Commit path.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE items SET qty = 111 WHERE id = 1`)
	mustExec(t, s, `COMMIT`)
	r = mustExec(t, s2, `SELECT qty FROM items WHERE id = 1`)
	if r.Rows[0][0].I != 111 {
		t.Fatal("commit not visible")
	}
}

func TestMergeStatement(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	mustExec(t, s, `MERGE TABLE items`)
	tbl, _ := s.engine.Table("items")
	if tbl.ColdRows() != 5 {
		t.Fatalf("cold rows after MERGE = %d", tbl.ColdRows())
	}
	// Queries still work over the column store.
	r := mustExec(t, s, `SELECT SUM(qty) FROM items WHERE cat = 'fruit'`)
	if r.Rows[0][0].I != 30 {
		t.Fatalf("post-merge sum = %v", r.Rows[0])
	}
}

func TestInsertWithColumnList(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	mustExec(t, s, `INSERT INTO items (id, cat) VALUES (10, 'misc')`)
	r := mustExec(t, s, `SELECT qty FROM items WHERE id = 10`)
	if !r.Rows[0][0].Null {
		t.Fatal("unlisted column should be NULL")
	}
}

func TestSelectLiterals(t *testing.T) {
	s := newSession(t)
	r := mustExec(t, s, `SELECT 1 + 2, 'x'`)
	if r.Rows[0][0].I != 3 || r.Rows[0][1].S != "x" {
		t.Fatalf("literals = %v", r.Rows[0])
	}
}

func TestErrors(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	for _, q := range []string{
		`SELECT nope FROM items`,
		`SELECT * FROM missing`,
		`INSERT INTO items VALUES (1)`,
		`CREATE TABLE t2 (a BIGINT)`, // no primary key
		`SELECT cat, SUM(qty) FROM items`,
		`SELECT id FROM items WHERE`,
		`FROB x`,
		`COMMIT`,
		`INSERT INTO items VALUES (1, 'dup', 1, 1.0)`,
	} {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

func TestNegativeNumbers(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE n (id BIGINT, v BIGINT, PRIMARY KEY (id))`)
	mustExec(t, s, `INSERT INTO n VALUES (1, -5), (2, 5)`)
	r := mustExec(t, s, `SELECT v FROM n WHERE v < 0`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != -5 {
		t.Fatalf("negatives = %v", r.Rows)
	}
}

func TestPushdownMatchesResidualSemantics(t *testing.T) {
	// The same query through the pushdown path (simple predicates) and
	// residual path (wrapped in OR with FALSE-ish tautology breaker)
	// must agree — pushdown must not change results.
	s := newSession(t)
	setupItems(t, s)
	mustExec(t, s, `MERGE TABLE items`)
	r1 := mustExec(t, s, `SELECT id FROM items WHERE qty > 20 ORDER BY id`)
	r2 := mustExec(t, s, `SELECT id FROM items WHERE qty > 20 OR 1 = 2 ORDER BY id`)
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("pushdown diverges: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		if r1.Rows[i][0].I != r2.Rows[i][0].I {
			t.Fatal("pushdown row mismatch")
		}
	}
}

func TestSelectDistinct(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	r := mustExec(t, s, `SELECT DISTINCT cat FROM items ORDER BY cat`)
	if len(r.Rows) != 3 {
		t.Fatalf("distinct cats = %v", r.Rows)
	}
	if r.Rows[0][0].S != "fruit" || r.Rows[2][0].S != "veg" {
		t.Fatalf("distinct order = %v", r.Rows)
	}
	// DISTINCT with expressions.
	r = mustExec(t, s, `SELECT DISTINCT qty / 20 FROM items`)
	if len(r.Rows) != 3 { // 0 (10), 1 (20,30), 2 (40,50)
		t.Fatalf("distinct expr = %v", r.Rows)
	}
}

func TestTopNPlanMatchesSortLimit(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	// ORDER BY + LIMIT without OFFSET takes the TopN path; a plain
	// ORDER BY takes the full-sort path. Their prefixes must agree.
	r1 := mustExec(t, s, `SELECT id FROM items ORDER BY qty DESC LIMIT 3`)
	r2 := mustExec(t, s, `SELECT id FROM items ORDER BY qty DESC`)
	if len(r1.Rows) != 3 || len(r2.Rows) != 5 {
		t.Fatal("row counts")
	}
	for i := range r1.Rows {
		if r1.Rows[i][0].I != r2.Rows[i][0].I {
			t.Fatalf("TopN diverges from full sort at %d", i)
		}
	}
}

func TestCreateIndexStatement(t *testing.T) {
	s := newSession(t)
	setupItems(t, s)
	mustExec(t, s, `CREATE INDEX by_cat ON items (cat)`)
	mustExec(t, s, `CREATE HASH INDEX by_qty ON items (qty)`)
	tbl, _ := s.engine.Table("items")
	if len(tbl.Indexes()) != 2 {
		t.Fatalf("indexes = %d", len(tbl.Indexes()))
	}
	if _, err := s.Exec(`CREATE INDEX by_cat ON items (cat)`); err == nil {
		t.Fatal("duplicate index should fail")
	}
	if _, err := s.Exec(`CREATE INDEX x ON items (missing)`); err == nil {
		t.Fatal("index on missing column should fail")
	}
	// Queries still correct with indexes present and maintained.
	mustExec(t, s, `INSERT INTO items VALUES (100, 'fruit', 7, 0.1)`)
	r := mustExec(t, s, `SELECT COUNT(*) FROM items WHERE cat = 'fruit'`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("count = %v", r.Rows[0])
	}
}

func TestTypeString(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (a BIGINT, b DOUBLE, c VARCHAR, d BOOLEAN, PRIMARY KEY (a))`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 2.5, 'x', TRUE)`)
	r := mustExec(t, s, `SELECT * FROM t WHERE d = TRUE`)
	if len(r.Rows) != 1 {
		t.Fatalf("bool query = %v", r.Rows)
	}
}
