package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// softmaxRowRef is SoftmaxRow's float64 contract written with scalar
// math.Exp: max-subtract, divide by the temperature, exponentiate, sum in
// index order, multiply by the reciprocal of the sum.
func softmaxRowRef(x []float64, temperature float64) []float64 {
	out := append([]float64(nil), x...)
	if len(out) == 0 {
		return out
	}
	if temperature <= 0 {
		temperature = 1
	}
	maxv := out[0]
	for _, v := range out[1:] {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(maxv, -1) {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	var sum float64
	for i, v := range out {
		e := math.Exp((v - maxv) / temperature)
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
	return out
}

// sameFloat64 reports whether a and b have the same bits, counting any two
// NaNs as equal.
func sameFloat64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func checkSoftmaxRowBits(t *testing.T, x []float64, temperature float64) {
	t.Helper()
	want := softmaxRowRef(x, temperature)
	got := append([]float64(nil), x...)
	SoftmaxRow(got, temperature)
	for i := range got {
		if !sameFloat64(got[i], want[i]) {
			t.Fatalf("n=%d T=%v: out[%d] = %v (%#x), scalar math.Exp gives %v (%#x); input %v",
				len(x), temperature, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), x[i])
		}
	}
}

// TestSoftmaxRowExpBitExact pins the float64 SoftmaxRow to scalar math.Exp
// bit for bit. The rows subtest covers every row length from 1 to 1030 (so
// every SIMD tail length, and rows on both sides of simdMinLen), three
// temperatures, and rows with one poison lane anywhere — NaN, +Inf, or a
// support so far below the max that its exponential is subnormal or zero,
// which sends the rest of the row to the scalar fallback. The kernel subtest
// sweeps the AVX2 exp kernel directly over its whole fast-path domain
// [-708, 0]: the edges, both sides of every point where the exponent
// k = round(x·log2 e) steps, and uniform random arguments; a group holding
// an argument outside the domain must stop the kernel at that group's start.
func TestSoftmaxRowExpBitExact(t *testing.T) {
	t.Run("rows", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		poison := []func(maxv, temperature float64) float64{
			func(float64, float64) float64 { return math.NaN() },
			func(float64, float64) float64 { return math.Inf(1) },
			func(maxv, temperature float64) float64 { return maxv - 720*temperature }, // subnormal
			func(maxv, temperature float64) float64 { return maxv - 800*temperature }, // zero
			func(maxv, temperature float64) float64 { return maxv - 708.2*temperature },
		}
		for n := 1; n <= 1030; n++ {
			for _, temperature := range []float64{1, 0.5, 3} {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.NormFloat64() * 40
				}
				checkSoftmaxRowBits(t, x, temperature)
				maxv := x[0]
				for _, v := range x {
					maxv = math.Max(maxv, v)
				}
				x[rng.Intn(n)] = poison[n%len(poison)](maxv, temperature)
				checkSoftmaxRowBits(t, x, temperature)
			}
		}
	})
	t.Run("kernel", func(t *testing.T) {
		if !simdEnabled {
			t.Skip("no AVX2+FMA kernel on this machine")
		}
		args := []float64{0, math.Copysign(0, -1), -708, math.Nextafter(-708, 0),
			-math.SmallestNonzeroFloat64, -0x1p-1022, -1e-300, -1e-17, -0.5, -1}
		for k := 0; k <= 1021; k++ {
			edge := -(float64(k) + 0.5) * math.Ln2
			if edge >= -708 {
				args = append(args, edge, math.Nextafter(edge, 0), math.Nextafter(edge, -1000))
			}
		}
		rng := rand.New(rand.NewSource(2))
		for len(args) < 1<<20 {
			args = append(args, -708*rng.Float64())
		}
		args = args[:len(args)&^3]
		x := append([]float64(nil), args...)
		n, sum := softmaxExpF64AVX(x, 0, 1)
		if n != len(x) {
			t.Fatalf("kernel stopped at %d of %d in-domain arguments", n, len(x))
		}
		var want float64
		for i, a := range args {
			e := math.Exp(a)
			if math.Float64bits(x[i]) != math.Float64bits(e) {
				t.Fatalf("exp(%v) = %v (%#x), math.Exp gives %v (%#x)", a, x[i], math.Float64bits(x[i]), e, math.Float64bits(e))
			}
			want += e
		}
		if sum != want {
			t.Fatalf("kernel sum %v, index-order sum %v", sum, want)
		}

		// The smallest normal result, exp(-708.39...), lies outside the domain.
		for _, out := range []float64{math.Nextafter(-708, -1000), math.Log(0x1p-1022), -745, math.Inf(-1), math.NaN(), 1e-300} {
			x := []float64{-1, -2, -3, -4, -5, out, -6, -7}
			if n, _ := softmaxExpF64AVX(x, 0, 1); n != 4 {
				t.Fatalf("argument %v: kernel covered %d lanes, want it to stop at 4", out, n)
			}
		}
	})
}

// FuzzSoftmaxRow checks the float64 SoftmaxRow against the scalar math.Exp
// reference bit for bit. Each byte is one support, an int8 scaled by
// spread, so the fuzzer controls row length, spread (poison values
// included) and temperature.
func FuzzSoftmaxRow(f *testing.F) {
	f.Add([]byte("\x00"), 1.0, 1.0)
	f.Add([]byte("hypercolumn supports, one byte each, and then some more"), 0.5, 0.7)
	f.Add(make([]byte, 37), 3.0, 2.5)
	f.Add([]byte("\x80\x7f\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e"), 6.0, 1.0)
	f.Fuzz(func(t *testing.T, supports []byte, spread, temperature float64) {
		x := make([]float64, len(supports))
		for i, b := range supports {
			x[i] = float64(int8(b)) * spread
		}
		checkSoftmaxRowBits(t, x, temperature)
	})
}
