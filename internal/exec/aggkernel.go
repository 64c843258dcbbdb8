package exec

import (
	"math"

	"repro/internal/types"
)

// This file holds the typed aggregation kernels: tight loops over packed
// column arrays, one family per argument type. Each kernel consumes a
// whole vector honoring the batch's selection vector and the column's
// null mask, with a dense null-free fast path. Dictionary-coded and
// boolean columns flow through the int64 kernels unchanged (their
// exec-layer representation is the Ints array), so the same kernels
// serve value-domain and code-domain aggregation.

// typedAggState is the unboxed accumulator for one (group, aggregate)
// pair. Int and float fields coexist so one layout serves every column
// type; the consumer knows statically which part is live. VARCHAR
// MIN/MAX live behind a pointer, set on the first value, so the states
// of numeric aggregates stay small.
type typedAggState struct {
	count      int64
	sumI       int64
	sumF       floatSum
	minI, maxI int64
	minF, maxF float64
	minMaxS    *[2]string // VARCHAR MIN, MAX
	seen       bool
}

// observeInt folds v into the MIN/MAX range.
func (st *typedAggState) observeInt(v int64) {
	if !st.seen {
		st.minI, st.maxI, st.seen = v, v, true
		return
	}
	if v < st.minI {
		st.minI = v
	}
	if v > st.maxI {
		st.maxI = v
	}
}

// observeFloat folds v into the MIN/MAX range under floatBefore's total
// order, so the result does not depend on row order.
func (st *typedAggState) observeFloat(v float64) {
	if !st.seen {
		st.minF, st.maxF, st.seen = v, v, true
		return
	}
	if floatBefore(v, st.minF) {
		st.minF = v
	}
	if floatBefore(st.maxF, v) {
		st.maxF = v
	}
}

// floatBefore orders floats as types.Compare does (NaN before every
// number) and additionally puts -0 before +0, which Compare calls
// equal: MIN/MAX then pick the same zero however rows are ordered or
// split across workers.
func floatBefore(a, b float64) bool {
	return a < b || (a != a && b == b) || (a == b && math.Float64bits(a) > math.Float64bits(b))
}

// observeString folds v into the MIN/MAX range.
func (st *typedAggState) observeString(v string) {
	if st.minMaxS == nil {
		st.minMaxS, st.seen = &[2]string{v, v}, true
		return
	}
	if v < st.minMaxS[0] {
		st.minMaxS[0] = v
	}
	if v > st.minMaxS[1] {
		st.minMaxS[1] = v
	}
}

// sumIntKernel accumulates COUNT and SUM over an int64 (or bool or
// dict-code) vector.
func sumIntKernel(vec *types.Vector, sel []int, st *typedAggState) {
	vals := vec.Ints
	var sum int64
	if !vec.HasNulls() {
		if sel == nil {
			for _, v := range vals {
				sum += v
			}
			st.sumI += sum
			st.count += int64(len(vals))
			return
		}
		for _, i := range sel {
			sum += vals[i]
		}
		st.sumI += sum
		st.count += int64(len(sel))
		return
	}
	if sel == nil {
		for i, v := range vals {
			if vec.IsNull(i) {
				continue
			}
			sum += v
			st.count++
		}
		st.sumI += sum
		return
	}
	for _, i := range sel {
		if vec.IsNull(i) {
			continue
		}
		sum += vals[i]
		st.count++
	}
	st.sumI += sum
}

// minMaxIntKernel accumulates MIN and MAX over an int64 vector.
func minMaxIntKernel(vec *types.Vector, sel []int, n int, st *typedAggState) {
	vals := vec.Ints
	if sel == nil && !vec.HasNulls() {
		for _, v := range vals {
			st.observeInt(v)
		}
		return
	}
	for r := 0; r < n; r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if !vec.IsNull(i) {
			st.observeInt(vals[i])
		}
	}
}

// sumFloatKernel accumulates COUNT and SUM over a float64 vector. The
// sum is exact (floatSum), so the result is independent of how rows are
// batched, laid out or split across workers — a query must produce
// bit-identical sums before and after a delta merge.
func sumFloatKernel(vec *types.Vector, sel []int, st *typedAggState) {
	vals := vec.Floats
	if !vec.HasNulls() {
		if sel == nil {
			for _, v := range vals {
				st.sumF.add(v)
			}
			st.count += int64(len(vals))
			return
		}
		for _, i := range sel {
			st.sumF.add(vals[i])
		}
		st.count += int64(len(sel))
		return
	}
	if sel == nil {
		for i, v := range vals {
			if vec.IsNull(i) {
				continue
			}
			st.sumF.add(v)
			st.count++
		}
		return
	}
	for _, i := range sel {
		if vec.IsNull(i) {
			continue
		}
		st.sumF.add(vals[i])
		st.count++
	}
}

// minMaxFloatKernel accumulates MIN and MAX over a float64 vector.
func minMaxFloatKernel(vec *types.Vector, sel []int, n int, st *typedAggState) {
	vals := vec.Floats
	if sel == nil && !vec.HasNulls() {
		for _, v := range vals {
			st.observeFloat(v)
		}
		return
	}
	for r := 0; r < n; r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if !vec.IsNull(i) {
			st.observeFloat(vals[i])
		}
	}
}

// minMaxStringKernel accumulates MIN and MAX over a VARCHAR vector.
func minMaxStringKernel(vec *types.Vector, sel []int, n int, st *typedAggState) {
	vals := vec.Strings
	for r := 0; r < n; r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if !vec.IsNull(i) {
			st.observeString(vals[i])
		}
	}
}

// countKernel counts non-null positions (COUNT(col)).
func countKernel(vec *types.Vector, sel []int, n int, st *typedAggState) {
	if !vec.HasNulls() {
		st.count += int64(n)
		return
	}
	if sel == nil {
		st.count += int64(n - vec.Nulls.CountNulls())
		return
	}
	for _, i := range sel {
		if !vec.IsNull(i) {
			st.count++
		}
	}
}

// ---------------------------------------------------------------------
// Grouped variants: one state per (group, aggregate). gids[r] names the
// group of logical row r; states is laid out [gid*stride+off].
// ---------------------------------------------------------------------

func sumIntGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Ints
	if !vec.HasNulls() {
		if sel == nil {
			for r, v := range vals {
				st := &states[int(gids[r])*stride+off]
				st.sumI += v
				st.count++
			}
			return
		}
		for r, i := range sel {
			st := &states[int(gids[r])*stride+off]
			st.sumI += vals[i]
			st.count++
		}
		return
	}
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if vec.IsNull(i) {
			continue
		}
		st := &states[int(gids[r])*stride+off]
		st.sumI += vals[i]
		st.count++
	}
}

func minMaxIntGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Ints
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if !vec.IsNull(i) {
			states[int(gids[r])*stride+off].observeInt(vals[i])
		}
	}
}

func sumFloatGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Floats
	if !vec.HasNulls() {
		if sel == nil {
			for r, v := range vals {
				st := &states[int(gids[r])*stride+off]
				st.sumF.add(v)
				st.count++
			}
			return
		}
		for r, i := range sel {
			st := &states[int(gids[r])*stride+off]
			st.sumF.add(vals[i])
			st.count++
		}
		return
	}
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if vec.IsNull(i) {
			continue
		}
		st := &states[int(gids[r])*stride+off]
		st.sumF.add(vals[i])
		st.count++
	}
}

func minMaxFloatGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Floats
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if !vec.IsNull(i) {
			states[int(gids[r])*stride+off].observeFloat(vals[i])
		}
	}
}

func minMaxStringGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Strings
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if !vec.IsNull(i) {
			states[int(gids[r])*stride+off].observeString(vals[i])
		}
	}
}

func countGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if vec != nil && vec.IsNull(i) {
			continue
		}
		states[int(gids[r])*stride+off].count++
	}
}

// countStarGrouped counts every row of its group, nulls included.
func countStarGrouped(gids []int32, states []typedAggState, stride, off int) {
	for _, g := range gids {
		states[int(g)*stride+off].count++
	}
}
