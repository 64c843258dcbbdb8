package exec

import (
	"repro/internal/types"
)

// This file implements the typed aggregation fast path: when every
// aggregate argument is a direct column reference of a numeric/bool
// type and the grouping is empty or a single int64-domain column (plain
// ints, bools, or dictionary codes), the operator bypasses per-row
// types.Value boxing entirely. Group lookup uses an open-addressing
// table keyed on the raw int64 — no map[string] key building — and the
// aggregates run as whole-vector kernels over gid arrays.

// aggKind selects the kernel family for one aggregate spec.
type aggKind uint8

const (
	aggKindCountStar aggKind = iota
	aggKindCount
	aggKindSumInt
	aggKindSumFloat
	aggKindMinMaxInt
	aggKindMinMaxFloat
)

// typedAggSpec is one aggregate compiled for the typed path.
type typedAggSpec struct {
	kind    aggKind
	col     int // input column (unused for COUNT(*))
	fn      AggFunc
	argType types.Type
}

// result converts the accumulated state into the aggregate's output
// value, preserving the generic path's typing rules.
func (st *typedAggState) result(f AggFunc, argType types.Type) types.Value {
	isF := argType == types.Float64
	switch f {
	case AggCount, AggCountStar:
		return types.NewInt(st.count)
	case AggSum:
		if st.count == 0 {
			return types.NewNull(argType)
		}
		if isF {
			return types.NewFloat(st.sumF.value())
		}
		return types.NewInt(st.sumI)
	case AggMin:
		if !st.seen {
			return types.NewNull(argType)
		}
		switch argType {
		case types.Float64:
			return types.NewFloat(st.minF)
		case types.Bool:
			return types.NewBool(st.minI != 0)
		default:
			return types.NewInt(st.minI)
		}
	case AggMax:
		if !st.seen {
			return types.NewNull(argType)
		}
		switch argType {
		case types.Float64:
			return types.NewFloat(st.maxF)
		case types.Bool:
			return types.NewBool(st.maxI != 0)
		default:
			return types.NewInt(st.maxI)
		}
	case AggAvg:
		if st.count == 0 {
			return types.NewNull(types.Float64)
		}
		if isF {
			return types.NewFloat(st.sumF.value() / float64(st.count))
		}
		return types.NewFloat(float64(st.sumI) / float64(st.count))
	default:
		return types.NewNull(argType)
	}
}

// compileTypedAggs maps the aggregate specs onto kernels, or reports
// that the shape needs the generic path.
func compileTypedAggs(inS *types.Schema, aggs []AggSpec) ([]typedAggSpec, bool) {
	out := make([]typedAggSpec, len(aggs))
	for i, a := range aggs {
		if a.Func == AggCountStar || a.Arg == nil {
			out[i] = typedAggSpec{kind: aggKindCountStar, fn: AggCountStar, argType: types.Int64}
			continue
		}
		cr, ok := a.Arg.(*ColRef)
		if !ok {
			return nil, false
		}
		ct := inS.Cols[cr.Idx].Type
		sp := typedAggSpec{col: cr.Idx, fn: a.Func, argType: ct}
		switch a.Func {
		case AggCount:
			sp.kind = aggKindCount
		case AggSum, AggAvg:
			switch ct {
			case types.Int64, types.Bool:
				sp.kind = aggKindSumInt
			case types.Float64:
				sp.kind = aggKindSumFloat
			default:
				return nil, false
			}
		case AggMin, AggMax:
			switch ct {
			case types.Int64, types.Bool:
				sp.kind = aggKindMinMaxInt
			case types.Float64:
				sp.kind = aggKindMinMaxFloat
			default:
				return nil, false
			}
		default:
			return nil, false
		}
		out[i] = sp
	}
	return out, true
}

// typedGroupCol reports the input column usable as a typed group key, or
// ok=false when the grouping shape needs the generic path.
func typedGroupCol(inS *types.Schema, groups []Expr) (col int, global, ok bool) {
	switch len(groups) {
	case 0:
		return -1, true, true
	case 1:
		cr, isRef := groups[0].(*ColRef)
		if !isRef {
			return 0, false, false
		}
		switch inS.Cols[cr.Idx].Type {
		case types.Int64, types.Bool:
			return cr.Idx, false, true
		default:
			return 0, false, false
		}
	default:
		return 0, false, false
	}
}

// runTypedKernel dispatches one aggregate kernel over a batch (global
// aggregation).
func runTypedKernel(sp typedAggSpec, b *types.Batch, st *typedAggState) {
	switch sp.kind {
	case aggKindCountStar:
		st.count += int64(b.Len())
	case aggKindCount:
		countKernel(b.Cols[sp.col], b.Sel, b.Len(), st)
	case aggKindSumInt:
		sumIntKernel(b.Cols[sp.col], b.Sel, st)
	case aggKindSumFloat:
		sumFloatKernel(b.Cols[sp.col], b.Sel, st)
	case aggKindMinMaxInt:
		minMaxIntKernel(b.Cols[sp.col], b.Sel, st)
	case aggKindMinMaxFloat:
		minMaxFloatKernel(b.Cols[sp.col], b.Sel, st)
	}
}

// runTypedGroupedKernel dispatches one aggregate kernel over a batch
// with per-row group ids.
func runTypedGroupedKernel(sp typedAggSpec, b *types.Batch, gids []int32, states []typedAggState, stride, off int) {
	switch sp.kind {
	case aggKindCountStar:
		countStarGrouped(gids, states, stride, off)
	case aggKindCount:
		countGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindSumInt:
		sumIntGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindSumFloat:
		sumFloatGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindMinMaxInt:
		minMaxIntGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindMinMaxFloat:
		minMaxFloatGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	}
}

// intGroupTable is an open-addressing (linear probing) hash table from
// raw int64 group keys to dense group ids. Slots store gid+1 so the
// zero value means empty.
type intGroupTable struct {
	keys  []int64
	gids  []int32
	mask  int
	shift uint // 64 - log2(len(keys)): home slots come from the top bits
	n     int
}

func newIntGroupTable(capacity int) *intGroupTable {
	c := 16
	for c < capacity*2 {
		c *= 2
	}
	return &intGroupTable{keys: make([]int64, c), gids: make([]int32, c), mask: c - 1, shift: tableShift(c)}
}

// groupHome is the table's home slot for hash h: the top log2(slots)
// bits, where a multiplicative hash keeps its entropy — masking low
// bits would send low-bit-aligned keys (ids that are multiples of a
// power of two) all to one slot.
func groupHome(h uint64, shift uint) int { return int(h >> shift) }

// lookupOrInsert returns the dense gid for key, calling addGroup to
// allocate one on first sight.
func (t *intGroupTable) lookupOrInsert(key int64, addGroup func(key int64) int32) int32 {
	if t.n*2 >= len(t.keys) {
		t.grow()
	}
	idx := groupHome(types.HashInt64Key(key), t.shift)
	for {
		g := t.gids[idx]
		if g == 0 {
			gid := addGroup(key)
			t.keys[idx] = key
			t.gids[idx] = gid + 1
			t.n++
			return gid
		}
		if t.keys[idx] == key {
			return g - 1
		}
		idx = (idx + 1) & t.mask
	}
}

func (t *intGroupTable) grow() {
	oldKeys, oldGids := t.keys, t.gids
	c := len(oldKeys) * 2
	t.keys = make([]int64, c)
	t.gids = make([]int32, c)
	t.mask = c - 1
	t.shift = tableShift(c)
	for i, g := range oldGids {
		if g == 0 {
			continue
		}
		idx := groupHome(types.HashInt64Key(oldKeys[i]), t.shift)
		for t.gids[idx] != 0 {
			idx = (idx + 1) & t.mask
		}
		t.keys[idx] = oldKeys[i]
		t.gids[idx] = g
	}
}

// merge folds another partial state into st. The layout is kind-blind:
// count/sum fields are additive and min/max fold through seen, so one
// merge serves every kernel family (the fields a family never writes
// stay zero and merge harmlessly).
func (st *typedAggState) merge(o *typedAggState) {
	st.count += o.count
	st.sumI += o.sumI
	st.sumF.merge(&o.sumF)
	if !o.seen {
		return
	}
	if !st.seen {
		st.minI, st.maxI = o.minI, o.maxI
		st.minF, st.maxF = o.minF, o.maxF
		st.seen = true
		return
	}
	if o.minI < st.minI {
		st.minI = o.minI
	}
	if o.maxI > st.maxI {
		st.maxI = o.maxI
	}
	if o.minF < st.minF {
		st.minF = o.minF
	}
	if o.maxF > st.maxF {
		st.maxF = o.maxF
	}
}

// typedNext drains the input through the typed path. ok=false means the
// aggregation shape is not covered and the generic path must run (the
// input has not been consumed in that case). When the input is a
// parallel Pipeline, the drain fans out: every morsel worker accumulates
// thread-local partial states (its own open-addressing key table for
// grouped aggregation) and the partials merge here at the breaker.
func (h *HashAggregate) typedNext() (*types.Batch, bool, error) {
	inS := h.in.Schema()
	plan, ok := compileTypedAggs(inS, h.aggs)
	if !ok {
		return nil, false, nil
	}
	keyCol, global, ok := typedGroupCol(inS, h.groups)
	if !ok {
		return nil, false, nil
	}
	if p, isPipe := h.in.(*Pipeline); isPipe {
		if global {
			out, err := h.typedGlobalParallel(p, plan)
			return out, true, err
		}
		out, err := h.typedGroupedParallel(p, keyCol, plan)
		return out, true, err
	}
	if global {
		out, err := h.typedGlobal(plan)
		return out, true, err
	}
	out, err := h.typedGrouped(keyCol, plan)
	return out, true, err
}

func (h *HashAggregate) typedGlobal(plan []typedAggSpec) (*types.Batch, error) {
	states := make([]typedAggState, len(plan))
	for {
		b, err := h.in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for ai := range plan {
			runTypedKernel(plan[ai], b, &states[ai])
		}
	}
	return h.emitTypedGlobal(states, plan), nil
}

// typedGlobalParallel is typedGlobal with the drain fanned out over the
// pipeline's morsel workers: each worker folds its batches into private
// states and the partials merge once at the breaker. Float sums are
// exact until read, so the result matches the serial drain bit for bit.
func (h *HashAggregate) typedGlobalParallel(p *Pipeline, plan []typedAggSpec) (*types.Batch, error) {
	partials := make([][]typedAggState, p.Workers())
	err := p.ForEach(func(w int, b *types.Batch) error {
		st := partials[w]
		if st == nil {
			st = make([]typedAggState, len(plan))
			partials[w] = st
		}
		for ai := range plan {
			runTypedKernel(plan[ai], b, &st[ai])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	states := make([]typedAggState, len(plan))
	for _, st := range partials {
		if st == nil {
			continue
		}
		for ai := range states {
			states[ai].merge(&st[ai])
		}
	}
	return h.emitTypedGlobal(states, plan), nil
}

func (h *HashAggregate) emitTypedGlobal(states []typedAggState, plan []typedAggSpec) *types.Batch {
	out := types.NewBatch(h.schema, 1)
	row := make(types.Row, 0, len(h.schema.Cols))
	for ai, sp := range plan {
		row = append(row, states[ai].result(h.aggs[ai].Func, sp.argType))
	}
	out.AppendRow(row)
	return out
}

// typedGroupAcc is one thread of grouped-aggregation state: the
// open-addressing key table, the dense key list, the per-(group,
// aggregate) states, and the per-batch gid scratch. Serial drains use
// one; parallel drains give each morsel worker its own and merge them
// at the breaker. addFn is stored once so the per-row table probes pass
// a func value, not a fresh closure.
type typedGroupAcc struct {
	nAggs   int
	table   *intGroupTable
	keys    []int64
	states  []typedAggState
	gidBuf  []int32
	nullGid int32
	addFn   func(k int64) int32
}

func newTypedGroupAcc(nAggs int) *typedGroupAcc {
	a := &typedGroupAcc{nAggs: nAggs, table: newIntGroupTable(64), nullGid: -1}
	a.addFn = func(k int64) int32 {
		gid := int32(len(a.keys))
		a.keys = append(a.keys, k)
		for i := 0; i < a.nAggs; i++ {
			a.states = append(a.states, typedAggState{})
		}
		return gid
	}
	return a
}

// consume folds one batch into the accumulator: gid assignment (NULL
// keys go to a dedicated group outside the table) then one grouped
// kernel pass per aggregate.
func (a *typedGroupAcc) consume(b *types.Batch, keyCol int, plan []typedAggSpec) {
	kvec := b.Cols[keyCol]
	kvals := kvec.Ints
	n := b.Len()
	a.gidBuf = a.gidBuf[:0]
	if b.Sel == nil && !kvec.HasNulls() {
		for i := 0; i < n; i++ {
			a.gidBuf = append(a.gidBuf, a.table.lookupOrInsert(kvals[i], a.addFn))
		}
	} else {
		for r := 0; r < n; r++ {
			i := b.RowIdx(r)
			if kvec.IsNull(i) {
				if a.nullGid < 0 {
					a.nullGid = a.addFn(0)
				}
				a.gidBuf = append(a.gidBuf, a.nullGid)
				continue
			}
			a.gidBuf = append(a.gidBuf, a.table.lookupOrInsert(kvals[i], a.addFn))
		}
	}
	for ai := range plan {
		runTypedGroupedKernel(plan[ai], b, a.gidBuf, a.states, a.nAggs, ai)
	}
}

// mergeFrom folds another accumulator's groups into a. The NULL group
// is matched by its id, not its sentinel key, so a real key-0 group
// never collides with it.
func (a *typedGroupAcc) mergeFrom(o *typedGroupAcc) {
	for g := range o.keys {
		var gid int32
		if int32(g) == o.nullGid {
			if a.nullGid < 0 {
				a.nullGid = a.addFn(0)
			}
			gid = a.nullGid
		} else {
			gid = a.table.lookupOrInsert(o.keys[g], a.addFn)
		}
		dst := a.states[int(gid)*a.nAggs : (int(gid)+1)*a.nAggs]
		src := o.states[g*o.nAggs : (g+1)*o.nAggs]
		for ai := range dst {
			dst[ai].merge(&src[ai])
		}
	}
}

func (h *HashAggregate) typedGrouped(keyCol int, plan []typedAggSpec) (*types.Batch, error) {
	acc := newTypedGroupAcc(len(plan))
	for {
		b, err := h.in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		acc.consume(b, keyCol, plan)
	}
	return h.emitTypedGrouped(acc, plan), nil
}

// typedGroupedParallel is typedGrouped with the drain fanned out over
// the pipeline's morsel workers: each worker owns a thread-local
// typedGroupAcc (its own key table — no shared-table contention, no
// batch handoff) and the partial tables merge once at the breaker. The
// first worker's accumulator seeds the merge so its groups are not
// re-inserted. Group output order is first-seen across the merge, which
// depends on how zones were dealt to workers — unordered, as SQL allows.
func (h *HashAggregate) typedGroupedParallel(p *Pipeline, keyCol int, plan []typedAggSpec) (*types.Batch, error) {
	accs := make([]*typedGroupAcc, p.Workers())
	err := p.ForEach(func(w int, b *types.Batch) error {
		acc := accs[w]
		if acc == nil {
			acc = newTypedGroupAcc(len(plan))
			accs[w] = acc
		}
		acc.consume(b, keyCol, plan)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged *typedGroupAcc
	for _, acc := range accs {
		if acc == nil {
			continue
		}
		if merged == nil {
			merged = acc
			continue
		}
		merged.mergeFrom(acc)
	}
	if merged == nil {
		merged = newTypedGroupAcc(len(plan))
	}
	return h.emitTypedGrouped(merged, plan), nil
}

func (h *HashAggregate) emitTypedGrouped(acc *typedGroupAcc, plan []typedAggSpec) *types.Batch {
	nAggs := len(plan)
	out := types.NewBatch(h.schema, len(acc.keys))
	var keyNulls *types.NullMask
	if acc.nullGid >= 0 {
		keyNulls = types.NewNullMask(len(acc.keys))
		keyNulls.Set(int(acc.nullGid), true)
	}
	out.Cols[0].AppendInts(acc.keys, keyNulls, nil)
	for g := 0; g < len(acc.keys); g++ {
		for ai, sp := range plan {
			out.Cols[1+ai].Append(acc.states[g*nAggs+ai].result(h.aggs[ai].Func, sp.argType))
		}
	}
	return out
}
