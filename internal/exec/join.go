package exec

import (
	"repro/internal/types"
)

// JoinKind selects join semantics.
type JoinKind uint8

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
)

// joinOutCap is the output batch size of the probe pipeline.
const joinOutCap = 1024

// HashJoin is a columnar build/probe equi-join: the right (build) side
// is materialized into typed column vectors plus an open-addressing key
// table with per-key row chains; the left (probe) side streams
// batch-at-a-time. Probing computes key hashes for a whole batch, walks
// match chains into (probe, build) index pairs, and assembles output by
// typed columnar gather — no types.Row boxing and no per-match
// allocation on the probe/emit path. LEFT joins pad unmatched probe
// rows by gathering build columns at index -1 (NULL).
//
// The output batch is reused across calls: a returned batch is valid
// only until the next Next or Reset.
type HashJoin struct {
	left, right Operator
	leftKeys    []int
	rightKeys   []int
	doms        []keyDomain
	kind        JoinKind
	schema      *types.Schema

	// Note is a free-form planner annotation rendered by DescribePlan
	// (the SQL planner records its estimated output cardinality here).
	Note string

	// Build state.
	built bool
	store *types.Batch // materialized build side (dense)
	table *keyTable
	head  []int32 // entry -> first build row of the chain
	tail  []int32 // entry -> last build row (insertion keeps build order)
	next  []int32 // build row -> next row with the same key, -1 ends

	storeKeys []*types.Vector // key projection of store (table-side of eq)
	buildEq   func(probe, repr int32) bool
	probeEq   func(probe, repr int32) bool

	// Probe state, reused across batches.
	probe     *types.Batch
	probeKeys []*types.Vector // key projection of the current probe batch
	probePos  int             // next logical probe row
	chainRow  int32           // continuation inside a match chain, -1 none
	hashes    []uint64
	hasNull   []bool
	lIdx      []int32 // pending output: probe physical indexes
	rIdx      []int32 // pending output: build rows (-1 = LEFT pad)
	out       *types.Batch
}

// NewHashJoin joins left and right on leftKeys[i] = rightKeys[i].
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int, kind JoinKind) *HashJoin {
	ls, rs := left.Schema(), right.Schema()
	cols := make([]types.Column, 0, len(ls.Cols)+len(rs.Cols))
	cols = append(cols, ls.Cols...)
	cols = append(cols, rs.Cols...)
	doms := make([]keyDomain, len(leftKeys))
	for i := range leftKeys {
		doms[i] = keyDomainPair(ls.Cols[leftKeys[i]].Type, rs.Cols[rightKeys[i]].Type)
	}
	j := &HashJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		doms:   doms,
		kind:   kind,
		schema: &types.Schema{Cols: cols},
	}
	// eq closures are created once and passed as stored func values, so
	// the per-row table probes never allocate.
	j.buildEq = func(a, b int32) bool {
		return keyColsEqual(j.storeKeys, int(a), j.storeKeys, int(b), j.doms, false)
	}
	j.probeEq = func(probe, repr int32) bool {
		return keyColsEqual(j.probeKeys, int(probe), j.storeKeys, int(repr), j.doms, false)
	}
	return j
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// build drains the right side into the columnar store and indexes it:
// every non-NULL-key row is chained under its key's table entry. When
// the build side is a parallel Pipeline, the drain fans out: every
// morsel worker materializes its batches into a private typed store
// (scan, decode, filter, and projection all run on the worker) and the
// per-worker stores are stitched into the one store the chained key
// table indexes.
func (j *HashJoin) build() error {
	if j.store == nil {
		j.store = types.NewBatch(j.right.Schema(), joinOutCap)
	}
	if p, ok := j.right.(*Pipeline); ok {
		if err := j.buildDrainParallel(p); err != nil {
			return err
		}
	} else {
		for {
			b, err := j.right.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			j.store.AppendBatch(b)
		}
	}
	n := j.store.PhysLen()
	if j.table == nil {
		j.table = newKeyTable(n)
	}
	j.next = grow(j.next, n)
	j.hashes = grow(j.hashes, n)
	j.hasNull = grow(j.hasNull, n)
	hashKeyCols(j.store, j.rightKeys, j.doms, &j.storeKeys, j.hashes, j.hasNull)
	for r := 0; r < n; r++ {
		j.next[r] = -1
		if j.hasNull[r] {
			continue // NULL keys never join
		}
		e, inserted := j.table.lookupOrInsert(j.hashes[r], int32(r), j.buildEq)
		if inserted {
			j.head = append(j.head, int32(r))
			j.tail = append(j.tail, int32(r))
			continue
		}
		j.next[j.tail[e]] = int32(r)
		j.tail[e] = int32(r)
	}
	j.built = true
	return nil
}

// buildDrainParallel materializes the build side through the pipeline's
// morsel workers: each worker bulk-appends its transient batches into a
// private store (the copy out of the transient scan batches that the
// serial path pays anyway), and the worker stores are stitched into
// one (largest adopted, rest appended). Build row order — and so match
// order within one probe row's chain — depends on zone dealing, as for
// any unordered scan.
func (j *HashJoin) buildDrainParallel(p *Pipeline) error {
	stores := make([]*types.Batch, p.Workers())
	err := p.ForEach(func(w int, b *types.Batch) error {
		s := stores[w]
		if s == nil {
			s = types.NewBatch(j.right.Schema(), joinOutCap)
			stores[w] = s
		}
		s.AppendBatch(b)
		return nil
	})
	if err != nil {
		return err
	}
	j.store = stitchStores(j.store, stores)
	return nil
}

// stitchStores concatenates per-worker stores into dst. When dst is
// still empty the largest worker store is adopted as the base instead
// of re-copied, so the stitch moves only the smaller remainder (the
// bulk of the build side is written once, as in the serial drain).
func stitchStores(dst *types.Batch, stores []*types.Batch) *types.Batch {
	if dst.PhysLen() == 0 {
		big := -1
		for w, s := range stores {
			if s != nil && (big < 0 || s.PhysLen() > stores[big].PhysLen()) {
				big = w
			}
		}
		if big >= 0 {
			dst = stores[big]
			stores[big] = nil
		}
	}
	for _, s := range stores {
		if s != nil {
			dst.AppendBatch(s)
		}
	}
	return dst
}

// Next implements Operator.
func (j *HashJoin) Next() (*types.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	if j.out == nil {
		j.out = types.NewBatch(j.schema, joinOutCap)
	}
	for {
		if j.probe == nil {
			b, err := j.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return j.flush(), nil
			}
			//oadb:allow-batchescape probe batch is fully consumed before the next left.Next() call, so it never outlives its validity window
			j.probe = b
			j.probePos = 0
			j.chainRow = -1
			n := b.Len()
			j.hashes = grow(j.hashes, n)
			j.hasNull = grow(j.hasNull, n)
			hashKeyCols(b, j.leftKeys, j.doms, &j.probeKeys, j.hashes, j.hasNull)
		}
		n := j.probe.Len()
		for j.probePos < n {
			i := j.probePos
			phys := int32(j.probe.RowIdx(i))
			if j.chainRow >= 0 {
				r := j.chainRow
				j.emit(phys, r)
				j.chainRow = j.next[r]
				if j.chainRow < 0 {
					j.probePos++
				}
			} else {
				matched := false
				if !j.hasNull[i] {
					// The probe side of eq indexes the raw batch vectors,
					// so the table sees physical positions.
					if e := j.table.lookup(j.hashes[i], phys, j.probeEq); e >= 0 {
						r := j.head[e]
						j.emit(phys, r)
						j.chainRow = j.next[r]
						matched = true
						if j.chainRow < 0 {
							j.probePos++
						}
					}
				}
				if !matched {
					if j.kind == LeftJoin {
						j.emit(phys, -1)
					}
					j.probePos++
				}
			}
			if len(j.lIdx) >= joinOutCap {
				return j.flush(), nil
			}
		}
		// Probe batch exhausted: the pending pairs reference its vectors,
		// so assemble them before pulling the next batch.
		if out := j.flush(); out != nil {
			j.probe = nil
			return out, nil
		}
		j.probe = nil
	}
}

// emit queues one output pair (build < 0 pads the right side with NULLs).
func (j *HashJoin) emit(probePhys, buildRow int32) {
	j.lIdx = append(j.lIdx, probePhys)
	j.rIdx = append(j.rIdx, buildRow)
}

// flush assembles the pending pairs into the reused output batch by
// typed gather, or returns nil when nothing is pending.
func (j *HashJoin) flush() *types.Batch {
	if len(j.lIdx) == 0 {
		return nil
	}
	j.out.Reset()
	nLeft := len(j.probe.Cols)
	for c := 0; c < nLeft; c++ {
		j.out.Cols[c].GatherAppend(j.probe.Cols[c], j.lIdx)
	}
	for c, vec := range j.store.Cols {
		j.out.Cols[nLeft+c].GatherAppend(vec, j.rIdx)
	}
	j.lIdx = j.lIdx[:0]
	j.rIdx = j.rIdx[:0]
	return j.out
}

// Reset implements Operator.
func (j *HashJoin) Reset() {
	j.left.Reset()
	j.right.Reset()
	j.built = false
	if j.store != nil {
		j.store.Reset()
	}
	if j.table != nil {
		j.table.reset()
	}
	j.head = j.head[:0]
	j.tail = j.tail[:0]
	j.probe = nil
	j.probePos = 0
	j.chainRow = -1
	j.lIdx = j.lIdx[:0]
	j.rIdx = j.rIdx[:0]
}

// grow resizes a reusable buffer to n elements without reallocating
// when capacity suffices (contents are unspecified; callers overwrite).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
