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

// AggSpec is one aggregate output column. Its argument is an input
// column, never an expression: the planner projects computed arguments
// into columns below the aggregate, so the operator only runs
// whole-vector kernels.
type AggSpec struct {
	Func AggFunc
	Col  int // input column; ignored for COUNT(*)
	Name string
}

// HashAggregate groups rows by key columns and computes aggregates.
// Output schema: group columns then aggregate columns.
type HashAggregate struct {
	in     Operator
	groups []int
	plan   []typedAggSpec // one per aggregate
	schema *types.Schema

	done bool
}

// NewHashAggregate builds an aggregation over the input columns
// groupCols. SUM and AVG need a numeric or bool argument; the planner
// rejects other types before building the operator.
func NewHashAggregate(in Operator, groupCols []int, aggs []AggSpec) *HashAggregate {
	inS := in.Schema()
	cols := make([]types.Column, 0, len(groupCols)+len(aggs))
	for _, c := range groupCols {
		cols = append(cols, inS.Cols[c])
	}
	plan := make([]typedAggSpec, len(aggs))
	for i, a := range aggs {
		plan[i] = compileTypedAgg(inS, a)
		t := plan[i].argType
		switch a.Func {
		case AggCount, AggCountStar:
			t = types.Int64
		case AggAvg:
			t = types.Float64
		}
		name := a.Name
		if name == "" {
			name = "COUNT(*)"
			if a.Func != AggCountStar {
				name = a.Func.String() + "(" + inS.Cols[a.Col].Name + ")"
			}
		}
		cols = append(cols, types.Column{Name: name, Type: t})
	}
	return &HashAggregate{in: in, groups: groupCols, plan: plan, schema: &types.Schema{Cols: cols}}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *types.Schema { return h.schema }

// Next implements Operator: it drains the input on first call and emits
// one batch of results. Every shape runs the same typed kernels over
// dense group ids (agg_typed.go). When the input is a parallel
// Pipeline, each morsel worker folds its batches into a thread-local
// accumulator and the partials merge here at the breaker.
func (h *HashAggregate) Next() (*types.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	acc, err := h.drain()
	if err != nil {
		return nil, err
	}
	return h.emit(acc), nil
}

func (h *HashAggregate) drain() (*groupAcc, error) {
	inS := h.in.Schema()
	p, ok := h.in.(*Pipeline)
	if !ok {
		acc := newGroupAcc(inS, h.groups, h.plan)
		for {
			b, err := h.in.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return acc, nil
			}
			acc.consume(b)
		}
	}
	accs := make([]*groupAcc, p.Workers())
	err := p.ForEach(func(w int, b *types.Batch) error {
		if accs[w] == nil {
			accs[w] = newGroupAcc(inS, h.groups, h.plan)
		}
		accs[w].consume(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The first worker's accumulator seeds the merge, so its groups are
	// not re-inserted. Group output order is first-seen across the
	// merge, which depends on how zones were dealt to workers —
	// unordered, as SQL allows.
	var merged *groupAcc
	for _, acc := range accs {
		switch {
		case acc == nil:
		case merged == nil:
			merged = acc
		default:
			merged.merge(acc)
		}
	}
	if merged == nil {
		merged = newGroupAcc(inS, h.groups, h.plan)
	}
	return merged, nil
}

// emit renders the accumulator as one output batch: the key columns in
// group-id order, then one column per aggregate. A global aggregate
// always has its one group, so it emits one row even over no input.
func (h *HashAggregate) emit(acc *groupAcc) *types.Batch {
	n := acc.groups()
	cols := make([]*types.Vector, 0, len(h.schema.Cols))
	if acc.keys != nil {
		cols = append(cols, acc.keys.vectors()...)
	}
	for ai, sp := range h.plan {
		v := types.NewVector(h.schema.Cols[len(h.groups)+ai].Type, n)
		for g := 0; g < n; g++ {
			v.Append(acc.states[g*len(h.plan)+ai].result(sp))
		}
		cols = append(cols, v)
	}
	return &types.Batch{Schema: h.schema, Cols: cols}
}

// Reset implements Operator.
func (h *HashAggregate) Reset() {
	h.in.Reset()
	h.done = false
}
