package exec

import (
	"fmt"

	"repro/internal/types"
)

// This file implements hash aggregation over typed vectors. Every
// aggregate argument is an input column, so each aggregate compiles to
// one kernel family (aggkernel.go) and no row is ever boxed into a
// types.Value. Rows map to dense group ids through one of two
// assigners, chosen by the key shape: a single Int64/Bool key column
// probes intGroupTable on the raw int64; every other shape (several
// columns, float, VARCHAR) probes the shared keyTable through colKeys
// (keytable.go). A global aggregate has no assigner and one group.

// aggKind selects the kernel family for one aggregate spec.
type aggKind uint8

const (
	aggKindCountStar aggKind = iota
	aggKindCount
	aggKindSumInt
	aggKindSumFloat
	aggKindMinMaxInt
	aggKindMinMaxFloat
	aggKindMinMaxString
)

// typedAggSpec is one aggregate compiled onto its kernel family.
type typedAggSpec struct {
	kind    aggKind
	col     int // input column (unused for COUNT(*))
	fn      AggFunc
	argType types.Type
}

// compileTypedAgg maps an aggregate spec onto its kernel family. COUNT
// takes any type and MIN/MAX any type; SUM and AVG over VARCHAR have no
// meaning and the planner rejects them, so reaching one is a bug.
func compileTypedAgg(inS *types.Schema, a AggSpec) typedAggSpec {
	if a.Func == AggCountStar {
		return typedAggSpec{kind: aggKindCountStar, fn: AggCountStar, argType: types.Int64}
	}
	t := inS.Cols[a.Col].Type
	sp := typedAggSpec{col: a.Col, fn: a.Func, argType: t}
	minMax := a.Func == AggMin || a.Func == AggMax
	switch {
	case a.Func == AggCount:
		sp.kind = aggKindCount
	case t == types.String && minMax:
		sp.kind = aggKindMinMaxString
	case t == types.String:
		panic(fmt.Sprintf("exec: %s over a %s column", a.Func, t))
	case t == types.Float64 && minMax:
		sp.kind = aggKindMinMaxFloat
	case t == types.Float64:
		sp.kind = aggKindSumFloat
	case minMax:
		sp.kind = aggKindMinMaxInt
	default:
		sp.kind = aggKindSumInt
	}
	return sp
}

// result converts the accumulated state into the aggregate's output
// value: COUNT is never NULL, every other aggregate over no non-NULL
// input is.
func (st *typedAggState) result(sp typedAggSpec) types.Value {
	t := sp.argType
	switch sp.fn {
	case AggCount, AggCountStar:
		return types.NewInt(st.count)
	case AggSum:
		if st.count == 0 {
			return types.NewNull(t)
		}
		if t == types.Float64 {
			return types.NewFloat(st.sumF.value())
		}
		return types.NewInt(st.sumI)
	case AggAvg:
		if st.count == 0 {
			return types.NewNull(types.Float64)
		}
		if t == types.Float64 {
			return types.NewFloat(st.sumF.value() / float64(st.count))
		}
		return types.NewFloat(float64(st.sumI) / float64(st.count))
	case AggMin, AggMax:
		if !st.seen {
			return types.NewNull(t)
		}
		isMin := sp.fn == AggMin
		switch t {
		case types.Float64:
			return types.NewFloat(pick(isMin, st.minF, st.maxF))
		case types.String:
			return types.NewString(pick(isMin, st.minMaxS[0], st.minMaxS[1]))
		default:
			// Bool columns take the int value; the output vector is Bool.
			return types.NewInt(pick(isMin, st.minI, st.maxI))
		}
	default:
		return types.NewNull(t)
	}
}

func pick[T any](first bool, a, b T) T {
	if first {
		return a
	}
	return b
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
		minMaxIntKernel(b.Cols[sp.col], b.Sel, b.Len(), st)
	case aggKindMinMaxFloat:
		minMaxFloatKernel(b.Cols[sp.col], b.Sel, b.Len(), st)
	case aggKindMinMaxString:
		minMaxStringKernel(b.Cols[sp.col], b.Sel, b.Len(), st)
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
	case aggKindMinMaxString:
		minMaxStringGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
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
		st.minMaxS = o.minMaxS
		st.seen = true
		return
	}
	st.observeInt(o.minI)
	st.observeInt(o.maxI)
	st.observeFloat(o.minF)
	st.observeFloat(o.maxF)
	if o.minMaxS != nil {
		st.observeString(o.minMaxS[0])
		st.observeString(o.minMaxS[1])
	}
}

// groupKeys assigns dense group ids (0, 1, 2, … in first-seen order)
// to key values and keeps each group's key.
type groupKeys interface {
	// assign appends the group id of each logical row of b to gids,
	// creating groups for keys not seen before.
	assign(b *types.Batch, gids []int32) []int32
	// absorb appends, for each of o's groups in id order, its id here,
	// creating the groups this table lacks. o has the same concrete
	// type and key columns (another worker's partial).
	absorb(o groupKeys, ids []int32) []int32
	// len is the number of groups.
	len() int
	// vectors returns the key columns, one row per group in id order.
	vectors() []*types.Vector
}

// newGroupKeys selects the assigner for the key shape.
func newGroupKeys(inS *types.Schema, cols []int) groupKeys {
	if len(cols) == 1 {
		if t := inS.Cols[cols[0]].Type; t == types.Int64 || t == types.Bool {
			return newIntKeys(cols[0], t)
		}
	}
	return newColKeys(inS, cols)
}

// intKeys assigns group ids for one Int64/Bool key column (plain ints,
// bools or dictionary codes) through intGroupTable. NULL keys go to a
// dedicated group outside the table, matched by id, so a real key 0
// never collides with it.
type intKeys struct {
	col     int
	typ     types.Type
	table   *intGroupTable
	keys    []int64 // per group id
	nullGid int32
	addFn   func(k int64) int32 // stored once: probes pass a func value, not a fresh closure
}

func newIntKeys(col int, typ types.Type) *intKeys {
	k := &intKeys{col: col, typ: typ, table: newIntGroupTable(64), nullGid: -1}
	k.addFn = func(key int64) int32 {
		k.keys = append(k.keys, key)
		return int32(len(k.keys) - 1)
	}
	return k
}

func (k *intKeys) len() int { return len(k.keys) }

func (k *intKeys) nullGroup() int32 {
	if k.nullGid < 0 {
		k.nullGid = k.addFn(0)
	}
	return k.nullGid
}

func (k *intKeys) assign(b *types.Batch, gids []int32) []int32 {
	kvec := b.Cols[k.col]
	kvals := kvec.Ints
	n := b.Len()
	if b.Sel == nil && !kvec.HasNulls() {
		for i := 0; i < n; i++ {
			gids = append(gids, k.table.lookupOrInsert(kvals[i], k.addFn))
		}
		return gids
	}
	for r := 0; r < n; r++ {
		i := b.RowIdx(r)
		if kvec.IsNull(i) {
			gids = append(gids, k.nullGroup())
			continue
		}
		gids = append(gids, k.table.lookupOrInsert(kvals[i], k.addFn))
	}
	return gids
}

func (k *intKeys) absorb(other groupKeys, ids []int32) []int32 {
	o := other.(*intKeys)
	for g, key := range o.keys {
		if int32(g) == o.nullGid {
			ids = append(ids, k.nullGroup())
			continue
		}
		ids = append(ids, k.table.lookupOrInsert(key, k.addFn))
	}
	return ids
}

func (k *intKeys) vectors() []*types.Vector {
	var nulls *types.NullMask
	if k.nullGid >= 0 {
		nulls = types.NewNullMask(len(k.keys))
		nulls.Set(int(k.nullGid), true)
	}
	v := types.NewVector(k.typ, len(k.keys))
	v.AppendInts(k.keys, nulls, nil)
	return []*types.Vector{v}
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

// groupAcc is one thread of aggregation state: the group-id assigner
// (nil for a global aggregate, which always has exactly one group), the
// per-(group, aggregate) states and the per-batch gid scratch. Serial
// drains use one; parallel drains give each morsel worker its own —
// its own key table, no shared-table contention, no batch handoff —
// and merge them at the breaker.
type groupAcc struct {
	plan   []typedAggSpec
	keys   groupKeys
	states []typedAggState // [gid*len(plan)+ai]
	gids   []int32
}

func newGroupAcc(inS *types.Schema, groupCols []int, plan []typedAggSpec) *groupAcc {
	a := &groupAcc{plan: plan}
	if len(groupCols) == 0 {
		a.states = make([]typedAggState, len(plan))
	} else {
		a.keys = newGroupKeys(inS, groupCols)
	}
	return a
}

func (a *groupAcc) groups() int {
	if a.keys == nil {
		return 1
	}
	return a.keys.len()
}

// consume folds one batch into the accumulator: group-id assignment,
// then one kernel pass per aggregate.
func (a *groupAcc) consume(b *types.Batch) {
	if a.keys == nil {
		for ai := range a.plan {
			runTypedKernel(a.plan[ai], b, &a.states[ai])
		}
		return
	}
	a.gids = a.keys.assign(b, a.gids[:0])
	a.growStates()
	for ai := range a.plan {
		runTypedGroupedKernel(a.plan[ai], b, a.gids, a.states, len(a.plan), ai)
	}
}

// growStates gives every group its zeroed states. The array doubles, so
// a drain reallocates it O(log groups) times; states past len are never
// written before they are reached, so they are still zero.
func (a *groupAcc) growStates() {
	need := a.keys.len() * len(a.plan)
	if need > cap(a.states) {
		grown := make([]typedAggState, need, 2*need)
		copy(grown, a.states)
		a.states = grown
	}
	a.states = a.states[:need]
}

// merge folds another worker's accumulator into a, re-probing o's
// keys into a's assigner.
func (a *groupAcc) merge(o *groupAcc) {
	if a.keys != nil {
		a.gids = a.keys.absorb(o.keys, a.gids[:0])
		a.growStates()
	}
	n := len(a.plan)
	for g := 0; g < o.groups(); g++ {
		dst := 0
		if a.keys != nil {
			dst = int(a.gids[g])
		}
		for ai := 0; ai < n; ai++ {
			a.states[dst*n+ai].merge(&o.states[g*n+ai])
		}
	}
}
