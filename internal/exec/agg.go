package exec

import (
	"repro/internal/types"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String names the function.
func (f AggFunc) String() string {
	switch f {
	case AggCount, AggCountStar:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "?"
	}
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Func AggFunc
	Arg  Expr // nil for COUNT(*)
	Name string
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sumI  int64
	sumF  floatSum
	isF   bool
	min   types.Value
	max   types.Value
	seen  bool
}

func (a *aggState) add(v types.Value) {
	if v.Null {
		return
	}
	a.count++
	switch v.Typ {
	case types.Float64:
		a.isF = true
		a.sumF.add(v.F)
	case types.Int64, types.Bool:
		a.sumI += v.I
	}
	if !a.seen {
		a.min, a.max = v, v
		a.seen = true
		return
	}
	if types.Compare(v, a.min) < 0 {
		a.min = v
	}
	if types.Compare(v, a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) result(f AggFunc, argType types.Type) types.Value {
	switch f {
	case AggCount, AggCountStar:
		return types.NewInt(a.count)
	case AggSum:
		if a.count == 0 {
			return types.NewNull(argType)
		}
		if a.isF || argType == types.Float64 {
			return types.NewFloat(a.floatTotal())
		}
		return types.NewInt(a.sumI)
	case AggMin:
		if !a.seen {
			return types.NewNull(argType)
		}
		return a.min
	case AggMax:
		if !a.seen {
			return types.NewNull(argType)
		}
		return a.max
	case AggAvg:
		if a.count == 0 {
			return types.NewNull(types.Float64)
		}
		if a.isF {
			return types.NewFloat(a.floatTotal() / float64(a.count))
		}
		return types.NewFloat(float64(a.sumI) / float64(a.count))
	default:
		return types.NewNull(argType)
	}
}

// floatTotal is the float sum of every value added: the exact float
// sum plus the integer sum, rounded once.
func (a *aggState) floatTotal() float64 {
	if a.sumI == 0 {
		return a.sumF.value()
	}
	var s floatSum
	s.merge(&a.sumF)
	s.add(float64(a.sumI))
	return s.value()
}

// HashAggregate groups rows by key expressions and computes aggregates.
// Output schema: group columns then aggregate columns.
type HashAggregate struct {
	in     Operator
	groups []Expr
	aggs   []AggSpec
	schema *types.Schema

	done bool
	out  *types.Batch
}

// NewHashAggregate builds an aggregation; groupNames label group
// columns.
func NewHashAggregate(in Operator, groups []Expr, groupNames []string, aggs []AggSpec) *HashAggregate {
	inS := in.Schema()
	cols := make([]types.Column, 0, len(groups)+len(aggs))
	for i, g := range groups {
		name := g.String()
		if i < len(groupNames) && groupNames[i] != "" {
			name = groupNames[i]
		}
		cols = append(cols, types.Column{Name: name, Type: g.Type(inS)})
	}
	for _, a := range aggs {
		t := types.Int64
		switch a.Func {
		case AggAvg:
			t = types.Float64
		case AggSum, AggMin, AggMax:
			if a.Arg != nil {
				t = a.Arg.Type(inS)
			}
		}
		name := a.Name
		if name == "" {
			if a.Arg != nil {
				name = a.Func.String() + "(" + a.Arg.String() + ")"
			} else {
				name = "COUNT(*)"
			}
		}
		cols = append(cols, types.Column{Name: name, Type: t})
	}
	return &HashAggregate{in: in, groups: groups, aggs: aggs, schema: &types.Schema{Cols: cols}}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *types.Schema { return h.schema }

type aggGroup struct {
	key    types.Row
	states []aggState
}

// Next implements Operator: it drains the input on first call and emits
// one batch of results. When the aggregation shape allows it (column-ref
// arguments over numeric/bool columns, grouping empty or a single
// int64-domain column), the drain runs through the typed kernel path in
// agg_typed.go instead of boxing a types.Value per row — and when the
// input is additionally a parallel exec.Pipeline, the typed drain fans
// out over the morsel workers with thread-local partial states merged
// here at the breaker.
func (h *HashAggregate) Next() (*types.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	if out, ok, err := h.typedNext(); ok || err != nil {
		h.out = out
		return out, err
	}
	tbl := make(map[uint64][]*aggGroup)
	var order []*aggGroup
	keyCols := make([]int, len(h.groups))
	for i := range keyCols {
		keyCols[i] = i
	}
	for {
		b, err := h.in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			key := make(types.Row, len(h.groups))
			for g, ge := range h.groups {
				key[g] = ge.Eval(b, i)
			}
			hk := types.HashRow(key, keyCols)
			var grp *aggGroup
			for _, cand := range tbl[hk] {
				if types.CompareKeys(cand.key, key) == 0 {
					grp = cand
					break
				}
			}
			if grp == nil {
				grp = &aggGroup{key: key, states: make([]aggState, len(h.aggs))}
				tbl[hk] = append(tbl[hk], grp)
				order = append(order, grp)
			}
			for ai, spec := range h.aggs {
				if spec.Func == AggCountStar || spec.Arg == nil {
					grp.states[ai].count++
					continue
				}
				grp.states[ai].add(spec.Arg.Eval(b, i))
			}
		}
	}
	// Global aggregate with no groups and no input: one all-empty row.
	if len(order) == 0 && len(h.groups) == 0 {
		order = append(order, &aggGroup{states: make([]aggState, len(h.aggs))})
	}
	inS := h.in.Schema()
	out := types.NewBatch(h.schema, len(order))
	for _, grp := range order {
		row := make(types.Row, 0, len(h.schema.Cols))
		row = append(row, grp.key...)
		for ai, spec := range h.aggs {
			argType := types.Int64
			if spec.Arg != nil {
				argType = spec.Arg.Type(inS)
			}
			row = append(row, grp.states[ai].result(spec.Func, argType))
		}
		out.AppendRow(row)
	}
	h.out = out
	return out, nil
}

// Reset implements Operator.
func (h *HashAggregate) Reset() {
	h.in.Reset()
	h.done = false
	h.out = nil
}
