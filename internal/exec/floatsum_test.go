package exec

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactRounded is the reference: the exact sum of xs rounded to the
// nearest float64.
func exactRounded(xs []float64) float64 {
	acc := new(big.Float).SetPrec(exactPrec)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

func sumOf(xs []float64) float64 {
	var s floatSum
	for _, x := range xs {
		s.add(x)
	}
	return s.value()
}

// sumSplit sums xs in k interleaved partial accumulators and merges
// them, the way morsel workers and the breaker do.
func sumSplit(xs []float64, k int) float64 {
	parts := make([]floatSum, k)
	for i, x := range xs {
		parts[i%k].add(x)
	}
	var s floatSum
	for i := range parts {
		s.merge(&parts[i])
	}
	return s.value()
}

func TestFloatSumExactAndOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := []struct {
		name string
		gen  func() float64
	}{
		{"money", func() float64 { return float64(rng.Intn(1_000_000)) / 100 }},
		{"unit", func() float64 { return rng.Float64() }},
		{"signed", func() float64 { return rng.NormFloat64() * 1e6 }},
		{"wide", func() float64 { return math.Ldexp(rng.Float64()-0.5, rng.Intn(200)-100) }},
		{"cancel", func() float64 { return []float64{1e16, -1e16, 1, 1e-16}[rng.Intn(4)] }},
		{"tiny", func() float64 { return math.SmallestNonzeroFloat64 * float64(rng.Intn(9)-4) }},
		{"halfway", func() float64 { return []float64{1, 0x1p-53, 0x1p-106, -0x1p-106}[rng.Intn(4)] }},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				xs := make([]float64, 1+rng.Intn(500))
				for i := range xs {
					xs[i] = g.gen()
				}
				want := exactRounded(xs)
				if got := sumOf(xs); got != want {
					t.Fatalf("sum = %v, exact %v", got, want)
				}
				for _, k := range []int{2, 3, 8} {
					if got := sumSplit(xs, k); got != want {
						t.Fatalf("split %d sum = %v, exact %v", k, got, want)
					}
				}
				rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
				if got := sumOf(xs); got != want {
					t.Fatalf("shuffled sum = %v, exact %v", got, want)
				}
			}
		})
	}
}

// TestFloatSumHalfEven: the exact sum 1e16+1+1e-16 lies just above a
// half-way point, so it must round up to 1e16+2; left-to-right
// summation rounds it down to 1e16.
func TestFloatSumHalfEven(t *testing.T) {
	xs := []float64{1e-16, 1, 1e16}
	if got, want := sumOf(xs), exactRounded(xs); got != want || got != 1e16+2 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestFloatSumNearOverflow(t *testing.T) {
	xs := []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, 1}
	want := exactRounded(xs)
	if want != math.MaxFloat64 {
		t.Fatalf("reference = %v", want)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {0, 2, 1, 3}} {
		var ys []float64
		for _, i := range order {
			ys = append(ys, xs[i])
		}
		if got := sumOf(ys); got != want {
			t.Fatalf("order %v: sum = %v, want %v", order, got, want)
		}
		if got := sumSplit(ys, 2); got != want {
			t.Fatalf("order %v split: sum = %v, want %v", order, got, want)
		}
	}
	if got := sumOf([]float64{math.MaxFloat64, math.MaxFloat64}); !math.IsInf(got, 1) {
		t.Fatalf("overflowing sum = %v, want +Inf", got)
	}
}

func TestFloatSumSpecials(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{1, inf, 2}, inf},
		{[]float64{-inf, 1}, -inf},
		{[]float64{1, math.NaN()}, math.NaN()},
		{[]float64{inf, 5, -inf}, math.NaN()},
	} {
		got := sumOf(tc.xs)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("sum%v = %v, want NaN", tc.xs, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("sum%v = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
