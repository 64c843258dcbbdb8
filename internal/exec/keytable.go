package exec

import (
	"math"
	"math/bits"
	"strings"

	"repro/internal/types"
)

// This file holds the shared multi-column typed key machinery behind the
// columnar hash operators: HashJoin, Distinct, and grouped aggregation
// over every key shape except a single Int64/Bool column (which probes
// intGroupTable in agg_typed.go). Keys are hashed and compared over raw
// typed column vectors — no types.Row boxing on the probe path — with an
// equality re-check on every hash hit so collisions are handled exactly.

// keyDomain classifies the representation one key column hashes and
// compares in.
type keyDomain uint8

const (
	// keyInt compares raw int64s (Int64 and Bool columns).
	keyInt keyDomain = iota
	// keyFloat compares float64s; int columns joined against float
	// columns promote through this domain on both sides.
	keyFloat
	// keyString compares strings.
	keyString
	// keyNever means the column pair can never compare equal
	// (disjoint non-numeric types); every row behaves like a NULL key.
	keyNever
)

// keyDomainOf maps a column type to its natural domain.
func keyDomainOf(t types.Type) keyDomain {
	switch t {
	case types.Float64:
		return keyFloat
	case types.String:
		return keyString
	default:
		return keyInt
	}
}

// keyDomainPair picks the common domain for an equi-join column pair,
// mirroring types.Compare: same class keeps its class, mixed numeric
// promotes to float, anything else never matches.
func keyDomainPair(l, r types.Type) keyDomain {
	dl, dr := keyDomainOf(l), keyDomainOf(r)
	if dl == dr {
		return dl
	}
	if dl != keyString && dr != keyString {
		return keyFloat
	}
	return keyNever
}

// hashKeyCols fills hashes (and hasNull) for the n logical rows of b
// projected onto cols, hashing each column in its assigned domain. When
// every column hashes in its natural domain this delegates to the
// vectorized types.HashKeyCols; promoted (or never-matching) columns
// take a per-column loop. scratch is a caller-owned reusable vector
// slice (so the per-batch probe path stays allocation-free);
// hashes/hasNull must have length ≥ b.Len().
func hashKeyCols(b *types.Batch, cols []int, doms []keyDomain, scratch *[]*types.Vector, hashes []uint64, hasNull []bool) {
	n := b.Len()
	vecs := (*scratch)[:0]
	for _, c := range cols {
		vecs = append(vecs, b.Cols[c])
	}
	*scratch = vecs
	natural := true
	for k := range vecs {
		if doms[k] != keyDomainOf(vecs[k].Typ) {
			natural = false
			break
		}
	}
	if natural {
		types.HashKeyCols(vecs, b.Sel, n, hashes, hasNull)
		return
	}
	for i := 0; i < n; i++ {
		hashes[i] = types.KeyHashInit
	}
	if hasNull != nil {
		for i := 0; i < n; i++ {
			hasNull[i] = false
		}
	}
	markNull := func(i int) {
		if hasNull != nil {
			hasNull[i] = true
		}
	}
	for k, v := range vecs {
		switch doms[k] {
		case keyNever:
			for i := 0; i < n; i++ {
				markNull(i)
			}
		case keyFloat:
			for i := 0; i < n; i++ {
				phys := b.RowIdx(i)
				if v.IsNull(phys) {
					hashes[i] = types.KeyHashCombine(hashes[i], types.KeyHashNull)
					markNull(i)
					continue
				}
				var f float64
				if v.Typ == types.Float64 {
					f = v.Floats[phys]
				} else {
					f = float64(v.Ints[phys])
				}
				hashes[i] = types.KeyHashCombine(hashes[i], types.HashFloat64Key(f))
			}
		case keyInt:
			for i := 0; i < n; i++ {
				phys := b.RowIdx(i)
				if v.IsNull(phys) {
					hashes[i] = types.KeyHashCombine(hashes[i], types.KeyHashNull)
					markNull(i)
					continue
				}
				hashes[i] = types.KeyHashCombine(hashes[i], types.HashInt64Key(v.Ints[phys]))
			}
		case keyString:
			for i := 0; i < n; i++ {
				phys := b.RowIdx(i)
				if v.IsNull(phys) {
					hashes[i] = types.KeyHashCombine(hashes[i], types.KeyHashNull)
					markNull(i)
					continue
				}
				hashes[i] = types.KeyHashCombine(hashes[i], types.HashStringKey(v.Strings[phys]))
			}
		}
	}
}

// keyColsEqual compares the key projection of physical row ai of acols
// against physical row bi of bcols, column pair by column pair in the
// given domains. nullEq selects NULL semantics: true means NULL == NULL
// (DISTINCT, GROUP BY), false means NULL matches nothing (joins; join
// callers additionally pre-filter NULL-key rows, so the false branch is
// only a collision guard).
func keyColsEqual(acols []*types.Vector, ai int, bcols []*types.Vector, bi int, doms []keyDomain, nullEq bool) bool {
	for k, dom := range doms {
		av, bv := acols[k], bcols[k]
		an, bn := av.IsNull(ai), bv.IsNull(bi)
		if an || bn {
			if nullEq && an && bn {
				continue
			}
			return false
		}
		switch dom {
		case keyNever:
			return false
		case keyInt:
			if av.Ints[ai] != bv.Ints[bi] {
				return false
			}
		case keyFloat:
			af, bf := keyAsFloat(av, ai), keyAsFloat(bv, bi)
			// NaN keys compare equal (types.Compare semantics).
			if af != bf && !(math.IsNaN(af) && math.IsNaN(bf)) {
				return false
			}
		case keyString:
			if av.Strings[ai] != bv.Strings[bi] {
				return false
			}
		}
	}
	return true
}

func keyAsFloat(v *types.Vector, i int) float64 {
	if v.Typ == types.Float64 {
		return v.Floats[i]
	}
	return float64(v.Ints[i])
}

// keyColsCompare orders the key projections of two rows lexicographically
// (NULL first, as types.Compare), for sort/Top-K threshold checks.
func keyColsCompare(acols []*types.Vector, ai int32, bcols []*types.Vector, bi int32, desc []bool) int {
	for k := range acols {
		c := vecComparePos(acols[k], ai, bcols[k], bi)
		if c == 0 {
			continue
		}
		if desc[k] {
			return -c
		}
		return c
	}
	return 0
}

// vecComparePos compares position ai of av against position bi of bv
// with types.Compare semantics for one type class.
func vecComparePos(av *types.Vector, ai int32, bv *types.Vector, bi int32) int {
	an, bn := av.IsNull(int(ai)), bv.IsNull(int(bi))
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch av.Typ {
	case types.Float64:
		return cmpFloatKey(av.Floats[ai], keyAsFloat(bv, int(bi)))
	case types.String:
		return strings.Compare(av.Strings[ai], bv.Strings[bi])
	default:
		if bv.Typ == types.Float64 {
			return cmpFloatKey(float64(av.Ints[ai]), bv.Floats[bi])
		}
		a, b := av.Ints[ai], bv.Ints[bi]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
}

// cmpFloatKey mirrors types.Compare's float ordering (NaN sorts first,
// before every non-NaN value; two NaNs compare equal).
func cmpFloatKey(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	default:
		return 0
	}
}

// keyTable maps multi-column typed keys to dense entry ids: an
// open-addressing (linear probing) generalization of intGroupTable.
// The table stores only the 64-bit hash and a representative row id per
// entry — key bytes stay in the caller's columnar store — so a hash hit
// is confirmed by re-checking key equality against the representative
// row (the eq callback). Slots store entry+1 so the zero value means
// empty.
type keyTable struct {
	slots  []int32
	mask   int
	shift  uint     // 64 - log2(len(slots)): home slots come from the TOP bits
	hashes []uint64 // per entry
	rows   []int32  // per entry: representative row in the caller's store
}

func newKeyTable(capacity int) *keyTable {
	c := 16
	for c < capacity*2 {
		c *= 2
	}
	return &keyTable{slots: make([]int32, c), mask: c - 1, shift: tableShift(c)}
}

func tableShift(c int) uint { return uint(64 - bits.TrailingZeros(uint(c))) }

// entries returns the number of distinct keys inserted.
func (t *keyTable) entries() int { return len(t.rows) }

// home computes the slot index for hash h. Multiplicative hashes carry
// their entropy in the HIGH bits (Fibonacci hashing's defining
// property), so the home slot is the top log2(slots) bits: masking raw
// low bits would collapse keys whose inputs share them — whole-number
// float keys end in dozens of zero mantissa bits, which stay zero
// through the odd-constant multiplies and would chain every such key
// into one slot (O(n²) probing).
func (t *keyTable) home(h uint64) int { return int(h >> t.shift) }

// lookupOrInsert finds the entry whose hash is h and whose key equals
// row's (via eq, comparing the probing row against an entry's
// representative row), inserting a new entry for row on miss. Callers
// pass eq as a stored func value, not a fresh closure, to keep the
// probe path allocation-free.
func (t *keyTable) lookupOrInsert(h uint64, row int32, eq func(probe, repr int32) bool) (entry int32, inserted bool) {
	if len(t.rows)*2 >= len(t.slots) {
		t.grow()
	}
	idx := t.home(h)
	for {
		s := t.slots[idx]
		if s == 0 {
			e := int32(len(t.rows))
			t.hashes = append(t.hashes, h)
			t.rows = append(t.rows, row)
			t.slots[idx] = e + 1
			return e, true
		}
		e := s - 1
		if t.hashes[e] == h && eq(row, t.rows[e]) {
			return e, false
		}
		idx = (idx + 1) & t.mask
	}
}

// lookup is lookupOrInsert without the insert: it returns the matching
// entry or -1. probe is handed to eq as the probing row id (its meaning
// — probe-batch row vs store row — is the caller's convention).
func (t *keyTable) lookup(h uint64, probe int32, eq func(probe, repr int32) bool) int32 {
	idx := t.home(h)
	for {
		s := t.slots[idx]
		if s == 0 {
			return -1
		}
		e := s - 1
		if t.hashes[e] == h && eq(probe, t.rows[e]) {
			return e
		}
		idx = (idx + 1) & t.mask
	}
}

// grow doubles the slot array and re-seats every entry by its stored
// hash (no key comparisons needed: entry ids are stable).
func (t *keyTable) grow() {
	c := len(t.slots) * 2
	t.slots = make([]int32, c)
	t.mask = c - 1
	t.shift = tableShift(c)
	for e, h := range t.hashes {
		idx := t.home(h)
		for t.slots[idx] != 0 {
			idx = (idx + 1) & t.mask
		}
		t.slots[idx] = int32(e) + 1
	}
}

// reset empties the table keeping capacity.
func (t *keyTable) reset() {
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.hashes = t.hashes[:0]
	t.rows = t.rows[:0]
}

// colKeys assigns dense group ids to multi-column typed keys through
// keyTable, for GROUP BY and DISTINCT. First-seen keys are kept in a
// columnar store, one row per group, so a group's id, its table entry
// and its store row coincide. NULLs are ordinary keys, equal to each
// other.
type colKeys struct {
	cols  []int
	doms  []keyDomain
	table *keyTable
	store []*types.Vector // one vector per key column

	scratch []*types.Vector // hashKeyCols' key projection of the batch
	hashes  []uint64
	cur     []*types.Vector // key columns of the probing row (read by eq)
	curPhys int32           // physical position of the probing row
	one     [1]int32
	eq      func(probe, repr int32) bool
}

func newColKeys(inS *types.Schema, cols []int) *colKeys {
	k := &colKeys{cols: cols, doms: make([]keyDomain, len(cols)), table: newKeyTable(64), store: make([]*types.Vector, len(cols))}
	for i, c := range cols {
		t := inS.Cols[c].Type
		k.doms[i] = keyDomainOf(t)
		k.store[i] = types.NewVector(t, 64)
	}
	// Created once: probes pass this stored func value, so per-row table
	// lookups never allocate. The table's probe argument is the store row
	// the key would occupy, useless for comparison; the probing row is
	// cur at curPhys.
	k.eq = func(_, repr int32) bool {
		return keyColsEqual(k.cur, int(k.curPhys), k.store, int(repr), k.doms, true)
	}
	return k
}

func (k *colKeys) len() int { return k.table.entries() }

// insert returns the group of the key at physical position phys of the
// columns src, whose hash is h, storing the key on first sight.
func (k *colKeys) insert(h uint64, src []*types.Vector, phys int32) int32 {
	k.cur, k.curPhys = src, phys
	g, inserted := k.table.lookupOrInsert(h, int32(k.len()), k.eq)
	if inserted {
		k.one[0] = phys
		for c, v := range k.store {
			v.GatherAppend(src[c], k.one[:])
		}
	}
	return g
}

func (k *colKeys) assign(b *types.Batch, gids []int32) []int32 {
	n := b.Len()
	k.hashes = grow(k.hashes, n)
	// hasNull is nil: NULLs are ordinary (equal) keys here.
	hashKeyCols(b, k.cols, k.doms, &k.scratch, k.hashes, nil)
	for i := 0; i < n; i++ {
		gids = append(gids, k.insert(k.hashes[i], k.scratch, int32(b.RowIdx(i))))
	}
	return gids
}

// absorb re-probes o's stored keys with the hashes o's table kept.
func (k *colKeys) absorb(other groupKeys, ids []int32) []int32 {
	o := other.(*colKeys)
	for g, h := range o.table.hashes {
		ids = append(ids, k.insert(h, o.store, int32(g)))
	}
	return ids
}

func (k *colKeys) vectors() []*types.Vector { return k.store }

// reset forgets every group, keeping capacity.
func (k *colKeys) reset() {
	k.table.reset()
	for _, v := range k.store {
		v.Reset()
	}
}
