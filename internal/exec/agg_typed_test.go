package exec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/types"
)

// aggTestSchema: g (group key), vi (int values), vf (float values).
func aggTestSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "g", Type: types.Int64},
		{Name: "vi", Type: types.Int64},
		{Name: "vf", Type: types.Float64},
	})
}

func runAgg(t *testing.T, src Operator, groups []int, aggs []AggSpec) []types.Row {
	t.Helper()
	rows, err := Collect(NewHashAggregate(src, groups, aggs))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// NULL-only group: every aggregate argument is NULL for one group.
func TestTypedAggNullOnlyGroup(t *testing.T) {
	s := aggTestSchema()
	rows := []types.Row{
		{types.NewInt(1), types.NewNull(types.Int64), types.NewNull(types.Float64)},
		{types.NewInt(1), types.NewNull(types.Int64), types.NewNull(types.Float64)},
		{types.NewInt(2), types.NewInt(7), types.NewFloat(1.5)},
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 2), []int{0},
		[]AggSpec{
			{Func: AggCountStar},
			{Func: AggCount, Col: 1},
			{Func: AggSum, Col: 1},
			{Func: AggMin, Col: 1},
			{Func: AggAvg, Col: 1},
		})
	if len(out) != 2 {
		t.Fatalf("groups = %d, want 2", len(out))
	}
	g1 := out[0] // group key 1, first seen
	if g1[1].I != 2 {
		t.Errorf("COUNT(*) = %v, want 2", g1[1])
	}
	if g1[2].I != 0 {
		t.Errorf("COUNT(vi) = %v, want 0", g1[2])
	}
	if !g1[3].Null {
		t.Errorf("SUM over all-NULL group = %v, want NULL", g1[3])
	}
	if !g1[4].Null {
		t.Errorf("MIN over all-NULL group = %v, want NULL", g1[4])
	}
	if !g1[5].Null {
		t.Errorf("AVG over all-NULL group = %v, want NULL", g1[5])
	}
}

// Empty input: a global aggregate emits one all-empty row; a grouped
// aggregate emits no rows.
func TestTypedAggEmptyInput(t *testing.T) {
	s := aggTestSchema()
	aggs := []AggSpec{
		{Func: AggCountStar},
		{Func: AggSum, Col: 1},
		{Func: AggAvg, Col: 1},
	}
	global := runAgg(t, NewSourceFromRows(s, nil, 64), nil, aggs)
	if len(global) != 1 {
		t.Fatalf("global over empty input: %d rows, want 1", len(global))
	}
	if global[0][0].I != 0 || !global[0][1].Null || !global[0][2].Null {
		t.Errorf("global row = %v, want (0, NULL, NULL)", global[0])
	}
	grouped := runAgg(t, NewSourceFromRows(s, nil, 64), []int{0}, aggs)
	if len(grouped) != 0 {
		t.Fatalf("grouped over empty input: %d rows, want 0", len(grouped))
	}
}

// AVG over an int column must produce a float result.
func TestTypedAggAvgIntColumn(t *testing.T) {
	s := aggTestSchema()
	rows := []types.Row{
		{types.NewInt(1), types.NewInt(1), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(2), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(4), types.NewFloat(0)},
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 2), nil,
		[]AggSpec{{Func: AggAvg, Col: 1}})
	v := out[0][0]
	if v.Typ != types.Float64 || v.Null {
		t.Fatalf("AVG = %v, want float", v)
	}
	if math.Abs(v.F-7.0/3.0) > 1e-12 {
		t.Errorf("AVG = %v, want %v", v.F, 7.0/3.0)
	}
}

// SUM accumulates in int64: summing to exactly MaxInt64 must be exact
// (no float rounding on the typed int path).
func TestTypedAggSumNearOverflow(t *testing.T) {
	s := aggTestSchema()
	rows := []types.Row{
		{types.NewInt(1), types.NewInt(math.MaxInt64 - 10), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(7), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(3), types.NewFloat(0)},
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 2), nil,
		[]AggSpec{{Func: AggSum, Col: 1}})
	if out[0][0].I != math.MaxInt64 {
		t.Fatalf("SUM = %v, want %v", out[0][0].I, int64(math.MaxInt64))
	}
}

// Enough distinct keys to force the open-addressing table through
// several growth/rehash cycles, plus a NULL key group.
func TestTypedAggManyGroupsSpillsTable(t *testing.T) {
	s := aggTestSchema()
	const groups = 10_000
	rows := make([]types.Row, 0, groups*2+3)
	for rep := 0; rep < 2; rep++ {
		for g := 0; g < groups; g++ {
			rows = append(rows, types.Row{
				types.NewInt(int64(g * 7)), // sparse keys
				types.NewInt(int64(g)),
				types.NewFloat(0),
			})
		}
	}
	for i := 0; i < 3; i++ {
		rows = append(rows, types.Row{types.NewNull(types.Int64), types.NewInt(1000), types.NewFloat(0)})
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 1024), []int{0},
		[]AggSpec{{Func: AggCountStar}, {Func: AggSum, Col: 1}})
	if len(out) != groups+1 {
		t.Fatalf("groups = %d, want %d", len(out), groups+1)
	}
	seenNull := false
	for _, r := range out {
		if r[0].Null {
			seenNull = true
			if r[1].I != 3 || r[2].I != 3000 {
				t.Errorf("NULL group = %v, want COUNT 3 SUM 3000", r)
			}
			continue
		}
		g := r[0].I / 7
		if r[1].I != 2 || r[2].I != 2*g {
			t.Errorf("group %d = %v, want COUNT 2 SUM %d", g, r, 2*g)
		}
	}
	if !seenNull {
		t.Error("NULL-key group missing from output")
	}
}

// Bool columns ride the int64 kernels (code-domain aggregation).
func TestTypedAggBoolColumn(t *testing.T) {
	s := types.MustSchema([]types.Column{
		{Name: "g", Type: types.Int64},
		{Name: "b", Type: types.Bool},
	})
	rows := []types.Row{
		{types.NewInt(1), types.NewBool(true)},
		{types.NewInt(1), types.NewBool(false)},
		{types.NewInt(1), types.NewBool(true)},
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 2), []int{0},
		[]AggSpec{
			{Func: AggSum, Col: 1},
			{Func: AggMin, Col: 1},
			{Func: AggMax, Col: 1},
		})
	r := out[0]
	// The output schema types SUM(bool) as Bool, so the sum collapses
	// to truthiness on the way out.
	if !r[1].Bool() {
		t.Errorf("SUM(bool) = %v, want truthy", r[1])
	}
	if r[2].Bool() || !r[3].Bool() {
		t.Errorf("MIN/MAX(bool) = %v/%v, want false/true", r[2], r[3])
	}
}

// Aggregation over a pre-filtered (selection-vector) input must honor
// the selection.
func TestTypedAggOverSelection(t *testing.T) {
	s := aggTestSchema()
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i % 4)),
			types.NewInt(int64(i)),
			types.NewFloat(float64(i)),
		}
	}
	src := NewSourceFromRows(s, rows, 32)
	filtered := NewVectorFilterInt(src, 1, OpLt, 50)
	out := runAgg(t, filtered, []int{0},
		[]AggSpec{{Func: AggCountStar}, {Func: AggSum, Col: 1}})
	if len(out) != 4 {
		t.Fatalf("groups = %d, want 4", len(out))
	}
	totalCount, totalSum := int64(0), int64(0)
	for _, r := range out {
		totalCount += r[1].I
		totalSum += r[2].I
	}
	if totalCount != 50 || totalSum != 49*50/2 {
		t.Fatalf("count %d sum %d, want 50 %d", totalCount, totalSum, 49*50/2)
	}
}

// oracleSchema covers every key and argument type: four key columns
// and four argument columns.
func oracleSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "ki", Type: types.Int64},
		{Name: "kb", Type: types.Bool},
		{Name: "kf", Type: types.Float64},
		{Name: "ks", Type: types.String},
		{Name: "vi", Type: types.Int64},
		{Name: "vf", Type: types.Float64},
		{Name: "vs", Type: types.String},
		{Name: "vb", Type: types.Bool},
	})
}

// oracleBatches builds random batches with NULLs in every column, NaN,
// +0 and -0 among the float keys and arguments, and a selection vector
// on every third batch.
func oracleBatches(rng *rand.Rand, nBatches, batchRows int) []*types.Batch {
	s := oracleSchema()
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, -2.25, 1e300, 7}
	words := []string{"", "a", "ab", "b", "zeta", "Zeta", "é"}
	maybeNull := func(v types.Value) types.Value {
		if rng.Intn(12) == 0 {
			return types.NewNull(v.Typ)
		}
		return v
	}
	var batches []*types.Batch
	for bi := 0; bi < nBatches; bi++ {
		b := types.NewBatch(s, batchRows)
		for r := 0; r < batchRows; r++ {
			b.AppendRow(types.Row{
				maybeNull(types.NewInt(int64(rng.Intn(9)))),
				maybeNull(types.NewBool(rng.Intn(2) == 0)),
				maybeNull(types.NewFloat(floats[rng.Intn(len(floats))])),
				maybeNull(types.NewString(words[rng.Intn(len(words))])),
				maybeNull(types.NewInt(int64(rng.Intn(2001) - 1000))),
				maybeNull(types.NewFloat(floats[rng.Intn(len(floats))] + float64(rng.Intn(100)/2)/8)),
				maybeNull(types.NewString(words[rng.Intn(len(words))])),
				maybeNull(types.NewBool(rng.Intn(3) == 0)),
			})
		}
		if bi%3 == 2 {
			var sel []int
			for r := 0; r < batchRows; r++ {
				if rng.Intn(3) != 0 {
					sel = append(sel, r)
				}
			}
			b.Sel = sel
		}
		batches = append(batches, b)
	}
	return batches
}

// oracleAggs is every aggregate over every argument type it accepts.
// SUM over bool is left out: its output column is typed Bool, so the
// sum collapses to truthiness (TestTypedAggBoolColumn pins that).
func oracleAggs() []AggSpec {
	aggs := []AggSpec{{Func: AggCountStar}}
	for col := 4; col <= 7; col++ {
		aggs = append(aggs, AggSpec{Func: AggCount, Col: col},
			AggSpec{Func: AggMin, Col: col}, AggSpec{Func: AggMax, Col: col})
	}
	for _, col := range []int{4, 5} {
		aggs = append(aggs, AggSpec{Func: AggSum, Col: col}, AggSpec{Func: AggAvg, Col: col})
	}
	return append(aggs, AggSpec{Func: AggAvg, Col: 7})
}

// oracleLess is the reference MIN/MAX order: types.Compare, with -0
// before +0 (which Compare calls equal) so the result is unique.
func oracleLess(a, b types.Value) bool {
	if c := types.Compare(a, b); c != 0 {
		return c < 0
	}
	return a.Typ == types.Float64 && math.Signbit(a.F) && !math.Signbit(b.F)
}

// oracleState is one group's reference accumulator for one aggregate.
type oracleState struct {
	count    int64
	sumI     int64
	sumF     *big.Float
	nan      bool
	min, max types.Value
}

// oracleAggregate is the reference implementation: a plain map keyed
// by the rendered key, row at a time over boxed values. Float sums are
// exact (big.Float) and rounded once, which is what SUM promises.
func oracleAggregate(s *types.Schema, batches []*types.Batch, groups []int, aggs []AggSpec) []types.Row {
	type group struct {
		key    types.Row
		states []oracleState
	}
	byKey := map[string]*group{}
	var order []*group
	for _, b := range batches {
		for r := 0; r < b.Len(); r++ {
			row := b.Row(r)
			key := make(types.Row, len(groups))
			name := ""
			for i, c := range groups {
				key[i] = row[c]
				v := row[c]
				switch {
				case v.Null:
					name += "|null"
				case v.Typ == types.Float64 && v.F == 0:
					name += "|0" // -0 and +0 are one group
				default:
					name += "|" + v.String()
				}
			}
			g := byKey[name]
			if g == nil {
				g = &group{key: key, states: make([]oracleState, len(aggs))}
				for i := range g.states {
					g.states[i].sumF = new(big.Float).SetPrec(2200)
				}
				byKey[name] = g
				order = append(order, g)
			}
			for i, a := range aggs {
				st := &g.states[i]
				if a.Func == AggCountStar {
					st.count++
					continue
				}
				v := row[a.Col]
				if v.Null {
					continue
				}
				st.count++
				switch {
				case v.Typ == types.Float64 && math.IsNaN(v.F):
					st.nan = true
				case v.Typ == types.Float64:
					st.sumF.Add(st.sumF, big.NewFloat(v.F))
				default:
					st.sumI += v.I
				}
				if st.count == 1 || oracleLess(v, st.min) {
					st.min = v
				}
				if st.count == 1 || oracleLess(st.max, v) {
					st.max = v
				}
			}
		}
	}
	if len(groups) == 0 && len(order) == 0 {
		order = append(order, &group{states: make([]oracleState, len(aggs))})
	}
	var out []types.Row
	for _, g := range order {
		row := append(types.Row{}, g.key...)
		for i, a := range aggs {
			st := g.states[i]
			t := types.Int64
			if a.Func != AggCountStar {
				t = s.Cols[a.Col].Type
			}
			var v types.Value
			switch {
			case a.Func == AggCount || a.Func == AggCountStar:
				v = types.NewInt(st.count)
			case st.count == 0 && a.Func == AggAvg:
				v = types.NewNull(types.Float64)
			case st.count == 0:
				v = types.NewNull(t)
			case a.Func == AggMin:
				v = st.min
			case a.Func == AggMax:
				v = st.max
			default: // SUM, AVG
				sum := float64(st.sumI)
				if t == types.Float64 {
					sum, _ = st.sumF.Float64()
				}
				if st.nan {
					sum = math.NaN()
				}
				switch {
				case a.Func == AggAvg:
					v = types.NewFloat(sum / float64(st.count))
				case t == types.Float64:
					v = types.NewFloat(sum)
				default:
					v = types.NewInt(st.sumI)
				}
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

// sameValue is exact equality: same type and nullness, floats bit for
// bit (any NaN matches any NaN).
func sameValue(a, b types.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.Typ != b.Typ {
		return false
	}
	switch a.Typ {
	case types.Float64:
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (math.IsNaN(a.F) && math.IsNaN(b.F))
	case types.String:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// sortByKey orders rows by their first nKeys columns (types.Compare
// order; keys are distinct, so the order is total).
func sortByKey(rows []types.Row, nKeys int) {
	sort.Slice(rows, func(i, j int) bool {
		for k := 0; k < nKeys; k++ {
			if c := types.Compare(rows[i][k], rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// TestHashAggregateMatchesOracle runs every aggregate over every key
// shape — none, one int, one bool, one float, one VARCHAR and three
// mixed columns — drained serially and through a 2- and 8-worker
// pipeline, and compares it exactly with the reference aggregation.
// Key values compare under types.Compare: -0 and +0 are one group, and
// which of them represents it depends on which row was seen first.
func TestHashAggregateMatchesOracle(t *testing.T) {
	s := oracleSchema()
	aggs := oracleAggs()
	shapes := map[string][]int{
		"global": nil, "int": {0}, "bool": {1}, "float": {2}, "varchar": {3}, "mixed": {0, 3, 2},
	}
	for seed := int64(1); seed <= 3; seed++ {
		batches := oracleBatches(rand.New(rand.NewSource(seed)), 12, 200)
		for name, groups := range shapes {
			want := oracleAggregate(s, batches, groups, aggs)
			sortByKey(want, len(groups))
			for _, workers := range []int{1, 2, 8} {
				var in Operator = NewSource(s, batches)
				if workers > 1 {
					in = MarkPipeline(&parSource{schema: s, batches: batches, max: workers}, workers)
				}
				got := runAgg(t, in, groups, aggs)
				sortByKey(got, len(groups))
				label := fmt.Sprintf("seed=%d keys=%s workers=%d", seed, name, workers)
				if len(got) != len(want) {
					t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
				}
				for i := range want {
					for c := range want[i] {
						w, g := want[i][c], got[i][c]
						ok := sameValue(w, g)
						if c < len(groups) {
							ok = w.Null == g.Null && types.Compare(w, g) == 0
						}
						if !ok {
							t.Fatalf("%s: group %v output column %d = %v, want %v", label, want[i][:len(groups)], c, g, w)
						}
					}
				}
			}
		}
	}
}

// TestFloatMinMaxOrderIndependent: MIN and MAX over floats follow
// types.Compare's order (NaN first) and put -0 before +0, so every
// arrival order and worker split gives the same bits.
func TestFloatMinMaxOrderIndependent(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Float64}})
	negZero := math.Copysign(0, -1)
	cases := []struct {
		vals     []float64
		min, max float64
	}{
		{[]float64{0, negZero}, negZero, 0},
		{[]float64{negZero, 0, negZero}, negZero, 0},
		{[]float64{3, math.NaN(), -1}, math.NaN(), 3},
		{[]float64{math.NaN(), 0, negZero}, math.NaN(), 0},
	}
	for _, c := range cases {
		perm := append([]float64(nil), c.vals...)
		for rot := 0; rot < len(perm); rot++ {
			perm = append(perm[1:], perm[0])
			batches := make([]*types.Batch, len(perm)) // one row per batch: workers split them
			for i, v := range perm {
				batches[i] = types.NewBatch(s, 1)
				batches[i].AppendRow(types.Row{types.NewFloat(v)})
			}
			for _, workers := range []int{1, 3} {
				var in Operator = NewSource(s, batches)
				if workers > 1 {
					in = MarkPipeline(&parSource{schema: s, batches: batches, max: workers}, workers)
				}
				r := runAgg(t, in, nil, []AggSpec{{Func: AggMin}, {Func: AggMax}})[0]
				if !sameValue(r[0], types.NewFloat(c.min)) || !sameValue(r[1], types.NewFloat(c.max)) {
					t.Errorf("MIN/MAX of %v (workers=%d) = %v/%v, want %v/%v", perm, workers, r[0].F, r[1].F, c.min, c.max)
				}
			}
		}
	}
}

// TestGroupedVarcharAggAllocs pins the allocation profile of grouped
// aggregation on a VARCHAR key: allocations grow with the number of
// groups, never with the number of input rows.
func TestGroupedVarcharAggAllocs(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "k", Type: types.String}, {Name: "v", Type: types.Int64}})
	const groups = 16
	allocsFor := func(nBatches int) float64 {
		batches := make([]*types.Batch, nBatches)
		for bi := range batches {
			b := types.NewBatch(s, 1024)
			for r := 0; r < 1024; r++ {
				b.AppendRow(types.Row{types.NewString(fmt.Sprintf("key-%02d", r%groups)), types.NewInt(int64(r))})
			}
			batches[bi] = b
		}
		agg := NewHashAggregate(NewSource(s, batches), []int{0},
			[]AggSpec{{Func: AggCountStar}, {Func: AggSum, Col: 1}, {Func: AggMax, Col: 0}})
		return testing.AllocsPerRun(5, func() {
			agg.Reset()
			if n, err := CollectCount(agg); err != nil || n != groups {
				t.Fatalf("groups = %d, err = %v", n, err)
			}
		})
	}
	small, large := allocsFor(4), allocsFor(64)
	if large > small+2 || large > 100 {
		t.Fatalf("allocs: %.0f over 4 batches, %.0f over 64 (%d rows); want O(groups), independent of rows",
			small, large, 64*1024)
	}
}
