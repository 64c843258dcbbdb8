package exec

import (
	"repro/internal/types"
)

// This file holds the typed aggregation kernels: tight loops over packed
// column arrays that replace the per-row aggState.add(types.Value) path.
// Each kernel consumes a whole vector honoring the batch's selection
// vector and the column's null mask, with a dense null-free fast path.
// Dictionary-coded and boolean columns flow through the int64 kernels
// unchanged (their exec-layer representation is the Ints array), so the
// same kernels serve value-domain and code-domain aggregation.

// typedAggState is the unboxed accumulator for one (group, aggregate)
// pair. Int and float fields coexist so one layout serves both column
// types; the consumer knows statically which half is live.
type typedAggState struct {
	count      int64
	sumI       int64
	sumF       floatSum
	minI, maxI int64
	minF, maxF float64
	seen       bool
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

// minMaxIntKernel accumulates COUNT, MIN, and MAX over an int64 vector.
func minMaxIntKernel(vec *types.Vector, sel []int, st *typedAggState) {
	vals := vec.Ints
	observe := func(v int64) {
		if !st.seen {
			st.minI, st.maxI = v, v
			st.seen = true
			return
		}
		if v < st.minI {
			st.minI = v
		}
		if v > st.maxI {
			st.maxI = v
		}
	}
	if !vec.HasNulls() {
		if sel == nil {
			for _, v := range vals {
				observe(v)
			}
			st.count += int64(len(vals))
			return
		}
		for _, i := range sel {
			observe(vals[i])
		}
		st.count += int64(len(sel))
		return
	}
	if sel == nil {
		for i, v := range vals {
			if vec.IsNull(i) {
				continue
			}
			observe(v)
			st.count++
		}
		return
	}
	for _, i := range sel {
		if vec.IsNull(i) {
			continue
		}
		observe(vals[i])
		st.count++
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

// minMaxFloatKernel accumulates COUNT, MIN, and MAX over a float64
// vector.
func minMaxFloatKernel(vec *types.Vector, sel []int, st *typedAggState) {
	vals := vec.Floats
	observe := func(v float64) {
		if !st.seen {
			st.minF, st.maxF = v, v
			st.seen = true
			return
		}
		if v < st.minF {
			st.minF = v
		}
		if v > st.maxF {
			st.maxF = v
		}
	}
	if !vec.HasNulls() {
		if sel == nil {
			for _, v := range vals {
				observe(v)
			}
			st.count += int64(len(vals))
			return
		}
		for _, i := range sel {
			observe(vals[i])
		}
		st.count += int64(len(sel))
		return
	}
	if sel == nil {
		for i, v := range vals {
			if vec.IsNull(i) {
				continue
			}
			observe(v)
			st.count++
		}
		return
	}
	for _, i := range sel {
		if vec.IsNull(i) {
			continue
		}
		observe(vals[i])
		st.count++
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
		if vec.IsNull(i) {
			continue
		}
		v := vals[i]
		st := &states[int(gids[r])*stride+off]
		if !st.seen {
			st.minI, st.maxI = v, v
			st.seen = true
		} else {
			if v < st.minI {
				st.minI = v
			}
			if v > st.maxI {
				st.maxI = v
			}
		}
		st.count++
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
		if vec.IsNull(i) {
			continue
		}
		v := vals[i]
		st := &states[int(gids[r])*stride+off]
		if !st.seen {
			st.minF, st.maxF = v, v
			st.seen = true
		} else {
			if v < st.minF {
				st.minF = v
			}
			if v > st.maxF {
				st.maxF = v
			}
		}
		st.count++
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
