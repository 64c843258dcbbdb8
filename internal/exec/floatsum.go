package exec

import (
	"math"
	"math/big"
)

// floatSum is an exact float64 accumulator whose result depends only on
// the multiset of values added, never on their order, batching or how
// partial sums were merged. A query therefore returns bit-identical
// SUM/AVG results whether its rows come from the delta or a merged
// segment and however many morsel workers drained them.
//
// The exact running sum is kept as Shewchuk's non-overlapping partials
// in increasing magnitude (the algorithm behind Python's math.fsum) and
// rounded once, to nearest-even, when the result is read. Non-finite
// inputs accumulate apart in special (inf+inf=inf, inf-inf=NaN, NaN
// absorbs), which is order-independent too. A running sum that nears
// the float64 range moves to an exact big.Float, so no intermediate
// overflows.
type floatSum struct {
	p       []float64  // non-overlapping partials, increasing magnitude
	special float64    // sum of non-finite inputs; 0 when there were none
	big     *big.Float // exact sum once a partial nears overflow
}

// nearOverflow bounds |x| and the largest partial on the partials path:
// below it, no two-sum step can round to infinity (the partials sum to
// less than twice the largest one).
const nearOverflow = 0x1p1021

// exactPrec covers every bit of a sum of up to 2^63 float64 values, from
// 2^-1074 to 2^1087, so big.Float additions at this precision are exact.
const exactPrec = 2200

func (s *floatSum) add(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special += x
		return
	}
	if s.big != nil {
		s.addBig(x)
		return
	}
	p := s.p
	if math.Abs(x) >= nearOverflow || (len(p) > 0 && math.Abs(p[len(p)-1]) >= nearOverflow) {
		s.toBig()
		s.addBig(x)
		return
	}
	i := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	p = p[:i]
	if x != 0 {
		p = append(p, x)
	}
	s.p = p
}

// merge folds another accumulator into s exactly.
func (s *floatSum) merge(o *floatSum) {
	s.special += o.special
	if o.big != nil {
		if s.big == nil {
			s.toBig()
		}
		s.big.Add(s.big, o.big)
	}
	for _, y := range o.p {
		s.add(y)
	}
}

func (s *floatSum) toBig() {
	s.big = new(big.Float).SetPrec(exactPrec)
	for _, y := range s.p {
		s.addBig(y)
	}
	s.p = s.p[:0]
}

func (s *floatSum) addBig(x float64) {
	s.big.Add(s.big, new(big.Float).SetFloat64(x))
}

// value returns the exact sum rounded to the nearest float64 (ties to
// even).
func (s *floatSum) value() float64 {
	if s.special != 0 {
		return s.special
	}
	if s.big != nil {
		f, _ := s.big.Float64()
		return f
	}
	p := s.p
	n := len(p)
	if n == 0 {
		return 0
	}
	// Sum from the top down until the running sum is inexact, then fix
	// up a half-way case the two-sum rounded the wrong way.
	n--
	hi := p[n]
	var lo float64
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	if n > 0 && ((lo < 0 && p[n-1] < 0) || (lo > 0 && p[n-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
