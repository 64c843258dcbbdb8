package exec

import (
	"repro/internal/types"
)

// Distinct removes duplicate rows (all columns), streaming: each batch
// takes group ids from the same key-table assigner as GROUP BY
// (colKeys), and a row is emitted when its id is new — ids are dense
// and assigned in first-seen order. The output is a selection vector
// over the input batch, so the probe/emit path never boxes a types.Row
// and performs no per-row allocation. NULLs compare equal here (SQL
// DISTINCT groups them), unlike join keys.
//
// The selection buffer and batch header are reused across calls: a
// returned batch is valid only until the next Next or Reset.
type Distinct struct {
	in   Operator
	keys *colKeys
	gids []int32
	sel  []int
	out  types.Batch
}

// NewDistinct wraps in with duplicate elimination.
func NewDistinct(in Operator) *Distinct {
	s := in.Schema()
	cols := make([]int, len(s.Cols))
	for i := range cols {
		cols[i] = i
	}
	return &Distinct{in: in, keys: newColKeys(s, cols)}
}

// Schema implements Operator.
func (d *Distinct) Schema() *types.Schema { return d.in.Schema() }

// Next implements Operator.
func (d *Distinct) Next() (*types.Batch, error) {
	for {
		b, err := d.in.Next()
		if err != nil || b == nil {
			return nil, err
		}
		next := int32(d.keys.len())
		d.gids = d.keys.assign(b, d.gids[:0])
		sel := d.sel[:0]
		for i, g := range d.gids {
			if g == next {
				sel = append(sel, b.RowIdx(i))
				next++
			}
		}
		d.sel = sel[:0]
		if len(sel) == 0 {
			continue
		}
		d.out = types.Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel}
		return &d.out, nil
	}
}

// Reset implements Operator.
func (d *Distinct) Reset() {
	d.in.Reset()
	d.keys.reset()
}
