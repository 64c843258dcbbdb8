// Package colstore implements the read-optimized half of the dual-format
// architecture: immutable, dictionary-compressed column segments with
// zone maps ("storage indexes" in Oracle DBIM terms, "synopses" in BLU
// terms), per-row MVCC delete timestamps, and a key index so the
// transactional path can invalidate merged rows.
//
// A segment is built by the delta-merge at a chosen snapshot (createTS):
// it contains exactly the rows visible at that snapshot, in primary-key
// order. Updates and deletes after the merge mark the segment row's
// delete timestamp and put any replacement row in the row store, so one
// timestamp domain spans both formats — the tutorial's "both formats
// simultaneously active and transactionally consistent" (DBIM [22]).
package colstore

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/txn"
	"repro/internal/types"
)

// ZoneSize is the number of rows summarized by one zone-map entry.
const ZoneSize = 1024

// Zone is the min/max/null summary of one column over one range of
// rows. Rows is the physical row count of the range and NullCount the
// number of nulls in it, so an all-null range is detected by count
// (NullCount == Rows), never by a sentinel min/max: Min and Max are
// meaningful only when the range holds at least one non-null value.
// The same shape summarizes a ZoneSize range (the per-zone map) and a
// whole segment column (the per-segment map the scan consults before
// dealing any morsel).
type Zone struct {
	Min, Max  types.Value
	Rows      int
	NullCount int
}

// AllNull reports whether the summarized range holds no non-null value.
func (z Zone) AllNull() bool { return z.NullCount == z.Rows }

// column is an encoded column of a segment.
type column interface {
	// get materializes the value at row i.
	get(i int) types.Value
	// sizeBytes is the encoded payload size.
	sizeBytes() int
	// nullMask returns the column's null mask (nil-safe: may be nil).
	nullMask() *types.NullMask
}

// intColumn stores int64s frame-of-reference coded.
type intColumn struct {
	enc   *compress.FrameOfReference
	nulls *types.NullMask
}

func (c *intColumn) get(i int) types.Value {
	if c.nulls.IsNull(i) {
		return types.NewNull(types.Int64)
	}
	return types.NewInt(c.enc.Get(i))
}
func (c *intColumn) sizeBytes() int            { return c.enc.SizeBytes() + c.nulls.SizeBytes() }
func (c *intColumn) nullMask() *types.NullMask { return c.nulls }

// intDictColumn stores int64s as bit-packed codes into an
// order-preserving int dictionary — chosen over frame-of-reference when
// the distinct count is far below the value range (status codes,
// warehouse ids), so predicates compare codes instead of values.
type intDictColumn struct {
	dict  *compress.IntDictionary
	codes *compress.BitPacked
	nulls *types.NullMask
}

func (c *intDictColumn) get(i int) types.Value {
	if c.nulls.IsNull(i) {
		return types.NewNull(types.Int64)
	}
	return types.NewInt(c.dict.Value(int(c.codes.Get(i))))
}
func (c *intDictColumn) sizeBytes() int {
	return c.codes.SizeBytes() + c.nulls.SizeBytes() + c.dict.Size()*8
}
func (c *intDictColumn) nullMask() *types.NullMask { return c.nulls }

// floatColumn stores float64s raw.
type floatColumn struct {
	vals  []float64
	nulls *types.NullMask
}

func (c *floatColumn) get(i int) types.Value {
	if c.nulls.IsNull(i) {
		return types.NewNull(types.Float64)
	}
	return types.NewFloat(c.vals[i])
}
func (c *floatColumn) sizeBytes() int            { return len(c.vals)*8 + c.nulls.SizeBytes() }
func (c *floatColumn) nullMask() *types.NullMask { return c.nulls }

// stringColumn stores strings as bit-packed codes into an
// order-preserving dictionary.
type stringColumn struct {
	dict  *compress.Dictionary
	codes *compress.BitPacked
	nulls *types.NullMask
}

func (c *stringColumn) get(i int) types.Value {
	if c.nulls.IsNull(i) {
		return types.NewNull(types.String)
	}
	return types.NewString(c.dict.Value(int(c.codes.Get(i))))
}
func (c *stringColumn) sizeBytes() int {
	sz := c.codes.SizeBytes() + c.nulls.SizeBytes()
	for i := 0; i < c.dict.Size(); i++ {
		sz += len(c.dict.Value(i))
	}
	return sz
}
func (c *stringColumn) nullMask() *types.NullMask { return c.nulls }

// boolColumn stores booleans bit-packed.
type boolColumn struct {
	bits  *compress.BitPacked
	nulls *types.NullMask
}

func (c *boolColumn) get(i int) types.Value {
	if c.nulls.IsNull(i) {
		return types.NewNull(types.Bool)
	}
	return types.NewBool(c.bits.Get(i) != 0)
}
func (c *boolColumn) sizeBytes() int            { return c.bits.SizeBytes() + c.nulls.SizeBytes() }
func (c *boolColumn) nullMask() *types.NullMask { return c.nulls }

// Segment is an immutable compressed column segment.
type Segment struct {
	schema   *types.Schema
	createTS uint64
	n        int
	cols     []column
	zones    [][]Zone // zones[col][zone]
	// summary[col] folds that column's zones into one segment-level
	// min/max/null-count — the map Scan consults to skip
	// the whole segment before any morsel is dealt or worker woken.
	summary []Zone
	// insTS[i] is the commit timestamp of the version merged into row i;
	// it lets snapshots older than the merge evaluate visibility exactly.
	insTS []uint64
	// delTS[i] is the MVCC end timestamp of row i (InfTS = live,
	// txn id = uncommitted delete, committed TS = deleted).
	delTS []atomic.Uint64
	// keyIdx maps key-hash -> candidate row indexes.
	keyIdx map[uint64][]int32
	// deleted counts committed deletions (merge-compaction heuristic).
	deleted atomic.Int64
}

// Builder accumulates rows (in primary-key order) and encodes a Segment.
type Builder struct {
	schema   *types.Schema
	createTS uint64
	rows     []types.Row
	insTS    []uint64
}

// NewBuilder starts a segment build at snapshot createTS.
func NewBuilder(schema *types.Schema, createTS uint64) *Builder {
	return &Builder{schema: schema, createTS: createTS}
}

// Add appends a row whose insert timestamp is the segment's createTS.
// Rows must arrive in primary-key order (the merge scans the row store
// in key order, so this holds naturally).
func (b *Builder) Add(row types.Row) { b.AddVersioned(row, b.createTS) }

// AddVersioned appends a row carrying the commit timestamp of the
// version it came from, preserving exact visibility for old snapshots.
func (b *Builder) AddVersioned(row types.Row, insTS uint64) {
	b.rows = append(b.rows, row)
	b.insTS = append(b.insTS, insTS)
}

// Len returns the number of rows added so far.
func (b *Builder) Len() int { return len(b.rows) }

// Build encodes the segment. The builder must not be reused.
func (b *Builder) Build() *Segment {
	n := len(b.rows)
	s := &Segment{
		schema:   b.schema,
		createTS: b.createTS,
		n:        n,
		cols:     make([]column, len(b.schema.Cols)),
		zones:    make([][]Zone, len(b.schema.Cols)),
		summary:  make([]Zone, len(b.schema.Cols)),
		insTS:    append([]uint64(nil), b.insTS...),
		delTS:    make([]atomic.Uint64, n),
		keyIdx:   make(map[uint64][]int32, n),
	}
	for i := range s.delTS {
		s.delTS[i].Store(txn.InfTS)
	}
	for ci, col := range b.schema.Cols {
		s.cols[ci] = encodeColumn(col.Type, b.rows, ci)
		s.zones[ci] = buildZones(b.rows, ci)
		s.summary[ci] = foldZones(s.zones[ci])
	}
	for i, row := range b.rows {
		h := types.HashRow(row, b.schema.Key)
		s.keyIdx[h] = append(s.keyIdx[h], int32(i))
	}
	return s
}

func encodeColumn(t types.Type, rows []types.Row, ci int) column {
	n := len(rows)
	var nulls *types.NullMask
	noteNull := func(i int) {
		if nulls == nil {
			nulls = types.NewNullMask(n)
		}
		nulls.Set(i, true)
	}
	switch t {
	case types.Int64:
		vals := make([]int64, n)
		for i, r := range rows {
			if r[ci].Null {
				noteNull(i)
				continue
			}
			vals[i] = r[ci].I
		}
		if dict := tryIntDict(vals); dict != nil {
			codes, _ := dict.Encode(vals)
			maxCode := uint64(0)
			if dict.Size() > 0 {
				maxCode = uint64(dict.Size() - 1)
			}
			return &intDictColumn{dict: dict, codes: compress.Pack(codes, compress.BitWidthFor(maxCode)), nulls: nulls}
		}
		return &intColumn{enc: compress.FOREncode(vals), nulls: nulls}
	case types.Float64:
		vals := make([]float64, n)
		for i, r := range rows {
			if r[ci].Null {
				noteNull(i)
				continue
			}
			vals[i] = r[ci].F
		}
		return &floatColumn{vals: vals, nulls: nulls}
	case types.String:
		raw := make([]string, n)
		for i, r := range rows {
			if r[ci].Null {
				noteNull(i)
				continue
			}
			raw[i] = r[ci].S
		}
		dict := compress.BuildDictionary(raw)
		codes, _ := dict.Encode(raw)
		maxCode := uint64(0)
		if dict.Size() > 0 {
			maxCode = uint64(dict.Size() - 1)
		}
		return &stringColumn{dict: dict, codes: compress.Pack(codes, compress.BitWidthFor(maxCode)), nulls: nulls}
	case types.Bool:
		vals := make([]uint64, n)
		for i, r := range rows {
			if r[ci].Null {
				noteNull(i)
				continue
			}
			if r[ci].I != 0 {
				vals[i] = 1
			}
		}
		return &boolColumn{bits: compress.Pack(vals, 1), nulls: nulls}
	default:
		panic(fmt.Sprintf("colstore: unsupported type %v", t))
	}
}

// tryIntDict decides whether an int column dictionary-encodes: the
// distinct count must be far below the row count AND the code width
// must beat frame-of-reference's delta width, otherwise FOR is at least
// as compact and needs no indirection. Returns nil to keep FOR.
func tryIntDict(vals []int64) *compress.IntDictionary {
	n := len(vals)
	if n < 2*ZoneSize {
		return nil // small segments: not worth the dictionary overhead
	}
	limit := n / 8
	seen := make(map[int64]struct{}, 256)
	minV, maxV := vals[0], vals[0]
	for _, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		if len(seen) <= limit {
			seen[v] = struct{}{}
		}
	}
	if len(seen) > limit || len(seen) == 0 {
		return nil
	}
	forWidth := compress.BitWidthFor(uint64(maxV - minV))
	dictWidth := compress.BitWidthFor(uint64(len(seen) - 1))
	if dictWidth >= forWidth {
		return nil
	}
	return compress.BuildIntDictionary(vals)
}

func buildZones(rows []types.Row, ci int) []Zone {
	n := len(rows)
	nz := (n + ZoneSize - 1) / ZoneSize
	zones := make([]Zone, nz)
	for z := 0; z < nz; z++ {
		lo, hi := z*ZoneSize, (z+1)*ZoneSize
		if hi > n {
			hi = n
		}
		zones[z].Rows = hi - lo
		first := true
		for i := lo; i < hi; i++ {
			v := rows[i][ci]
			if v.Null {
				zones[z].NullCount++
				continue
			}
			if first {
				zones[z].Min, zones[z].Max = v, v
				first = false
				continue
			}
			if types.Compare(v, zones[z].Min) < 0 {
				zones[z].Min = v
			}
			if types.Compare(v, zones[z].Max) > 0 {
				zones[z].Max = v
			}
		}
		// An all-null zone keeps zero-valued Min/Max: pruning skips it
		// by NullCount == Rows, never by comparing a sentinel.
	}
	return zones
}

// foldZones aggregates per-zone summaries into one segment-level zone.
func foldZones(zones []Zone) Zone {
	var seg Zone
	first := true
	for _, z := range zones {
		seg.Rows += z.Rows
		seg.NullCount += z.NullCount
		if z.AllNull() {
			continue
		}
		if first {
			seg.Min, seg.Max = z.Min, z.Max
			first = false
			continue
		}
		if types.Compare(z.Min, seg.Min) < 0 {
			seg.Min = z.Min
		}
		if types.Compare(z.Max, seg.Max) > 0 {
			seg.Max = z.Max
		}
	}
	return seg
}

// Schema returns the segment schema.
func (s *Segment) Schema() *types.Schema { return s.schema }

// CreateTS returns the snapshot the segment was merged at.
func (s *Segment) CreateTS() uint64 { return s.createTS }

// NumRows returns the physical row count (including deleted rows).
func (s *Segment) NumRows() int { return s.n }

// NumZones returns the zone count of the segment.
func (s *Segment) NumZones() int { return (s.n + ZoneSize - 1) / ZoneSize }

// ColumnSummary returns the segment-level zone map entry of column ci:
// min/max/null-count folded over every zone. Planners can use it for
// selectivity estimation; the scan uses it to skip whole segments.
func (s *Segment) ColumnSummary(ci int) Zone { return s.summary[ci] }

// DeletedRows returns the committed-deleted row count.
func (s *Segment) DeletedRows() int { return int(s.deleted.Load()) }

// SizeBytes returns the encoded payload size across all columns.
func (s *Segment) SizeBytes() int {
	sz := 0
	for _, c := range s.cols {
		sz += c.sizeBytes()
	}
	return sz
}

// Get materializes column ci of row i.
func (s *Segment) Get(i, ci int) types.Value { return s.cols[ci].get(i) }

// Row materializes row i in full.
func (s *Segment) Row(i int) types.Row {
	r := make(types.Row, len(s.cols))
	for ci := range s.cols {
		r[ci] = s.cols[ci].get(i)
	}
	return r
}

// RowVisible reports whether row i is visible at (readTS, self): the
// merged version was committed at or before the snapshot and has not
// been deleted as of the snapshot. Because each row carries its insert
// timestamp, this is exact even for snapshots older than the merge.
func (s *Segment) RowVisible(i int, readTS, self uint64) bool {
	return txn.Visible(s.insTS[i], s.delTS[i].Load(), readTS, self)
}

// InsertTS returns row i's insert (commit) timestamp.
func (s *Segment) InsertTS(i int) uint64 { return s.insTS[i] }

// FindKey returns the segment row index holding key, or -1. Deleted rows
// are still found (the caller decides based on visibility).
func (s *Segment) FindKey(key types.Row) int {
	h := keyHashOf(key)
	for _, idx := range s.keyIdx[h] {
		if types.CompareKeys(s.keyRow(int(idx)), key) == 0 {
			return int(idx)
		}
	}
	return -1
}

func keyHashOf(key types.Row) uint64 {
	cols := make([]int, len(key))
	for i := range cols {
		cols[i] = i
	}
	return types.HashRow(key, cols)
}

func (s *Segment) keyRow(i int) types.Row {
	k := make(types.Row, len(s.schema.Key))
	for j, ci := range s.schema.Key {
		k[j] = s.cols[ci].get(i)
	}
	return k
}

// MarkDeleted takes the MVCC write lock on row i for transaction t
// (first-updater-wins) and registers commit/abort hooks. It returns
// txn.ErrConflict if another transaction holds the row or it was deleted
// after t's snapshot.
func (s *Segment) MarkDeleted(t *txn.Txn, i int) error {
	cur := s.delTS[i].Load()
	if cur == t.ID {
		return nil // already marked by us
	}
	if txn.IsCommittedTS(cur) {
		return txn.ErrConflict // already deleted (any committed delete conflicts a writer)
	}
	if cur != txn.InfTS {
		return txn.ErrConflict // another txn's uncommitted delete
	}
	if !s.delTS[i].CompareAndSwap(txn.InfTS, t.ID) {
		return txn.ErrConflict
	}
	t.OnCommit(func(ts uint64) {
		s.delTS[i].Store(ts)
		s.deleted.Add(1)
	})
	t.OnAbort(func() { s.delTS[i].Store(txn.InfTS) })
	return nil
}

// DeleteTS returns row i's current delete timestamp.
func (s *Segment) DeleteTS(i int) uint64 { return s.delTS[i].Load() }
