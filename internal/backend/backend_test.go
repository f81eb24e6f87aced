package backend

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streambrain/internal/tensor"
)

func randMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randProbMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*0.9 + 0.05
	}
	return m
}

func randIdx(rng *rand.Rand, batch, groups, width int) [][]int32 {
	idx := make([][]int32, batch)
	for s := range idx {
		for g := 0; g < groups; g++ {
			idx[s] = append(idx[s], int32(g*width+rng.Intn(width)))
		}
	}
	return idx
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := map[string]bool{"naive": true, "parallel": true, "fused": true, "gpusim": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing backends: %v (have %v)", want, names)
	}
}

func TestNewUnknownBackend(t *testing.T) {
	if _, err := New("tpu", 1); err == nil {
		t.Fatal("expected error for unknown backend")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register("naive", func(int) Backend { return nil })
}

// TestConformanceMatMul and friends cross-check every kernel set against the
// naive reference of its own precision, the same validation strategy
// StreamBrain uses for its hand-coded kernels vs NumPy. Each runs at float64
// and float32, on the worker-team backends at 1, 2 and 4 workers, with sizes
// on both sides of the kernel's sharding minimum (parallel.go): a band split
// must never change a result, so every worker count must also reproduce the
// 1-worker result bit for bit.
func TestConformanceMatMul(t *testing.T) {
	bothPrecisions(t, conformMatMul[float64], conformMatMul[float32])
}

func TestConformanceMatMulATB(t *testing.T) {
	bothPrecisions(t, conformMatMulATB[float64], conformMatMulATB[float32])
}

func TestConformanceOneHotMatMul(t *testing.T) {
	bothPrecisions(t, conformOneHotMatMul[float64], conformOneHotMatMul[float32])
}

func TestConformanceAddBiasSoftmax(t *testing.T) {
	bothPrecisions(t, conformAddBiasSoftmax[float64], conformAddBiasSoftmax[float32])
}

func TestConformanceLerp(t *testing.T) {
	bothPrecisions(t, conformLerp[float64], conformLerp[float32])
}

func TestConformanceTraceKernels(t *testing.T) {
	bothPrecisions(t, conformTraceKernels[float64], conformTraceKernels[float32])
}

func TestConformanceOuterLerp(t *testing.T) {
	bothPrecisions(t, conformOuterLerp[float64], conformOuterLerp[float32])
}

func TestConformanceUpdateWeightsBias(t *testing.T) {
	bothPrecisions(t, conformUpdateWeightsBias[float64], conformUpdateWeightsBias[float32])
}

func bothPrecisions(t *testing.T, f64, f32 func(*testing.T)) {
	t.Run("f64", f64)
	t.Run("f32", f32)
}

// kernelsOf returns the named backend's kernel set of precision T.
func kernelsOf[T tensor.Float](name string, workers int) Kernels[T] {
	if elemSize[T]() == 4 {
		return any(MustNew32(name, workers)).(Kernels[T])
	}
	return any(MustNew(name, workers)).(Kernels[T])
}

// conform runs one kernel call through the naive reference and through every
// worker-team backend at 1, 2 and 4 workers. run executes the call on fresh
// copies of its inputs and returns every output, concatenated. At float64,
// results must agree with the reference within the absolute bound tol64 (the
// bound of the float64 test each check replaces); at float32, within 1e-4
// relative to magnitude. Every result must also match the same backend's
// 1-worker result bit for bit.
func conform[T tensor.Float](t *testing.T, what string, tol64 float64, run func(k Kernels[T]) []T) {
	t.Helper()
	f32 := elemSize[T]() == 4
	want := run(kernelsOf[T]("naive", 0))
	for _, name := range []string{"parallel", "fused", "gpusim"} {
		var serial []T
		for _, workers := range []int{1, 2, 4} {
			got := run(kernelsOf[T](name, workers))
			if len(got) != len(want) {
				t.Fatalf("%s %s/%d: %d outputs, want %d", what, name, workers, len(got), len(want))
			}
			for i, v := range got {
				ref := float64(want[i])
				bound := tol64
				if f32 {
					bound = 1e-4 * (1 + math.Abs(ref))
				}
				if d := math.Abs(float64(v) - ref); d > bound {
					t.Fatalf("%s %s/%d: output %d = %v, reference %v", what, name, workers, i, v, ref)
				}
				if serial != nil && v != serial[i] {
					t.Fatalf("%s %s/%d: output %d = %v, 1-worker %v", what, name, workers, i, v, serial[i])
				}
			}
			if serial == nil {
				serial = got
			}
		}
	}
}

func randDense[T tensor.Float](rng *rand.Rand, rows, cols int) *tensor.Dense[T] {
	return tensor.Cast[T](randMat(rng, rows, cols))
}

func randProbDense[T tensor.Float](rng *rand.Rand, rows, cols int) *tensor.Dense[T] {
	return tensor.Cast[T](randProbMat(rng, rows, cols))
}

func conformMatMul[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 37 rows run inline; 261 rows cross minGEMMRows into uneven bands.
	for _, rows := range []int{37, 261} {
		a := randDense[T](rng, rows, 53)
		b := randDense[T](rng, 53, 29)
		conform(t, fmt.Sprintf("MatMul rows=%d", rows), 1e-9, func(k Kernels[T]) []T {
			dst := tensor.NewDense[T](rows, 29)
			k.MatMul(dst, a, b)
			return dst.Data
		})
	}
}

func conformMatMulATB[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// dst rows 31 run inline; 71 cross minATBRows.
	for _, cols := range []int{31, 71} {
		a := randDense[T](rng, 64, cols)
		b := randDense[T](rng, 64, 17)
		conform(t, fmt.Sprintf("MatMulATB dst-rows=%d", cols), 1e-9, func(k Kernels[T]) []T {
			dst := tensor.NewDense[T](cols, 17)
			k.MatMulATB(dst, a, b)
			return dst.Data
		})
	}
}

func conformOneHotMatMul[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const groups, width, hcus, m = 9, 10, 4, 10
	w := randDense[T](rng, groups*width, hcus*m)
	mask := make([]bool, groups*hcus)
	for i := range mask {
		mask[i] = rng.Intn(2) == 0
	}
	bi := tensor.NewBlockIndex(mask, groups, width, hcus, m)
	// 3 samples run inline; 21 cross minBatchRows.
	for _, batch := range []int{3, 21} {
		idx := randIdx(rng, batch, groups, width)
		conform(t, fmt.Sprintf("OneHotMatMul batch=%d", batch), 1e-9, func(k Kernels[T]) []T {
			dense := tensor.NewDense[T](batch, hcus*m)
			sparse := tensor.NewDense[T](batch, hcus*m)
			k.OneHotMatMul(dense, idx, w)
			k.OneHotMatMulSparse(sparse, idx, w, bi)
			return append(dense.Data, sparse.Data...)
		})
	}
}

func conformAddBiasSoftmax[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bias := randDense[T](rng, 1, 24).Data
	// 2 and 3 rows run inline; 19 cross minBatchRows.
	for _, rows := range []int{2, 3, 19} {
		src := randDense[T](rng, rows, 24)
		conform(t, fmt.Sprintf("AddBias+Softmax rows=%d", rows), 1e-12, func(k Kernels[T]) []T {
			biased := src.Clone()
			k.AddBias(biased, bias)
			soft := biased.Clone()
			k.SoftmaxGroups(soft, 4, 6, 0.7)
			return append(biased.Data, soft.Data...)
		})
	}
}

func conformLerp[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// 1000 elements run inline; 16411 and 130×127 cross minLerpElems into
	// lane-aligned bands, whose results must match one worker's bit for bit.
	for _, n := range []int{1000, 16411} {
		dst := randDense[T](rng, 1, n).Data
		src := randDense[T](rng, 1, n).Data
		conform(t, fmt.Sprintf("Lerp n=%d", n), 1e-15, func(k Kernels[T]) []T {
			out := append([]T(nil), dst...)
			k.Lerp(out, src, 0.3)
			return out
		})
	}
	for _, shape := range [][2]int{{3, 5}, {130, 127}} {
		dst := randDense[T](rng, shape[0], shape[1])
		src := randDense[T](rng, shape[0], shape[1])
		conform(t, fmt.Sprintf("LerpMatrix %dx%d", shape[0], shape[1]), 1e-15, func(k Kernels[T]) []T {
			out := dst.Clone()
			k.LerpMatrix(out, src, 0.3)
			return out.Data
		})
	}
}

func conformTraceKernels[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const batch, groups, width, units = 16, 7, 10, 33
	in := groups * width
	idx := randIdx(rng, batch, groups, width)
	act := randProbDense[T](rng, batch, units)
	ci := randProbDense[T](rng, 1, in).Data
	cij := randProbDense[T](rng, in, units)
	conform(t, "OneHotMeanLerp+OneHotOuterLerp", 1e-9, func(k Kernels[T]) []T {
		gotCi := append([]T(nil), ci...)
		gotCij := cij.Clone()
		k.OneHotMeanLerp(gotCi, idx, 0.03)
		k.OneHotOuterLerp(gotCij, idx, act, 0.03)
		return append(gotCi, gotCij.Data...)
	})
}

func conformOuterLerp[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// The inner aᵀb has 20 rows (inline) or 70 (crossing minATBRows).
	for _, cols := range []int{20, 70} {
		a := randProbDense[T](rng, 12, cols)
		b := randProbDense[T](rng, 12, 5)
		base := randProbDense[T](rng, cols, 5)
		conform(t, fmt.Sprintf("OuterLerp rows=%d", cols), 1e-9, func(k Kernels[T]) []T {
			got := base.Clone()
			k.OuterLerp(got, a, b, 0.1)
			return got.Data
		})
	}
}

func conformUpdateWeightsBias[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const fi, mi, h, m = 5, 4, 3, 6
	in, units := fi*mi, h*m
	ci := randProbDense[T](rng, 1, in).Data
	cj := randProbDense[T](rng, 1, units).Data
	kbi := randProbDense[T](rng, 1, units).Data
	for j := range kbi {
		kbi[j]++
	}
	cij := randProbDense[T](rng, in, units)
	mask := make([]bool, fi*h)
	for i := range mask {
		mask[i] = rng.Intn(2) == 0
	}
	conform(t, "UpdateWeights+UpdateBias", 1e-9, func(k Kernels[T]) []T {
		w := tensor.NewDense[T](in, units)
		bias := make([]T, units)
		k.UpdateWeights(w, ci, cj, cij, mask, fi, mi, h, m, 1e-9)
		k.UpdateBias(bias, kbi, cj, 1e-9)
		return append(w.Data, bias...)
	})
}

func TestUpdateWeightsMaskZeroesSilentBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const fi, mi, h, m = 3, 2, 2, 2
	in, units := fi*mi, h*m
	ci := make([]float64, in)
	cj := make([]float64, units)
	for i := range ci {
		ci[i] = 0.5
	}
	for j := range cj {
		cj[j] = 0.5
	}
	cij := randProbMat(rng, in, units)
	mask := []bool{true, false, false, true, true, true}
	w := tensor.NewMatrix(in, units)
	MustNew("naive", 0).UpdateWeights(w, ci, cj, cij, mask, fi, mi, h, m, 1e-9)
	for i := 0; i < in; i++ {
		for j := 0; j < units; j++ {
			gated := mask[(i/mi)*h+j/m]
			v := w.At(i, j)
			if !gated && v != 0 {
				t.Fatalf("silent weight (%d,%d) = %v, want 0", i, j, v)
			}
			if gated && v == 0 {
				t.Fatalf("active weight (%d,%d) unexpectedly zero", i, j)
			}
		}
	}
}

func TestUpdateWeightsIndependenceIsZero(t *testing.T) {
	// If Cij = Ci·Cj exactly (statistical independence), weights must be 0:
	// log(pij/(pi·pj)) = log 1. This is the defining property of the BCPNN
	// weight — it measures deviation from independence.
	const in, units = 4, 3
	ci := []float64{0.2, 0.3, 0.4, 0.1}
	cj := []float64{0.5, 0.25, 0.25}
	cij := tensor.NewMatrix(in, units)
	for i := 0; i < in; i++ {
		for j := 0; j < units; j++ {
			cij.Set(i, j, ci[i]*cj[j])
		}
	}
	w := tensor.NewMatrix(in, units)
	MustNew("naive", 0).UpdateWeights(w, ci, cj, cij, nil, 0, 0, 0, 0, 1e-9)
	for _, v := range w.Data {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("independence should give zero weight, got %v", v)
		}
	}
}

func TestGPUSimTransferAccounting(t *testing.T) {
	g := NewGPUSim(2, PolicyOffloaded)
	w := tensor.NewMatrix(10, 8)
	dst := tensor.NewMatrix(4, 8)
	g.MakeResident(w.Data, dst.Data)
	afterPin := g.Stats()
	if afterPin.BytesH2D != int64(8*(len(w.Data)+len(dst.Data))) {
		t.Fatalf("pin upload bytes = %d", afterPin.BytesH2D)
	}
	idx := [][]int32{{0}, {1}, {2}, {3}}
	g.OneHotMatMul(dst, idx, w)
	st := g.Stats()
	// Offloaded: only the 4 indices move host→device; no D2H for resident dst.
	wantH2D := afterPin.BytesH2D + 4*4
	if st.BytesH2D != wantH2D {
		t.Fatalf("offloaded H2D = %d, want %d", st.BytesH2D, wantH2D)
	}
	if st.BytesD2H != 0 {
		t.Fatalf("offloaded D2H = %d, want 0", st.BytesD2H)
	}
	if st.KernelLaunches != 1 {
		t.Fatalf("launches = %d, want 1", st.KernelLaunches)
	}

	// Chatty: the same call moves the whole weight matrix and result.
	g.ResetStats()
	g.SetPolicy(PolicyChatty)
	g.OneHotMatMul(dst, idx, w)
	st = g.Stats()
	if st.BytesH2D != int64(8*len(w.Data)+4*4) {
		t.Fatalf("chatty H2D = %d", st.BytesH2D)
	}
	if st.BytesD2H != int64(8*len(dst.Data)) {
		t.Fatalf("chatty D2H = %d", st.BytesD2H)
	}
}

func TestGPUSimMakeResidentIdempotent(t *testing.T) {
	g := NewGPUSim(1, PolicyOffloaded)
	buf := make([]float64, 16)
	g.MakeResident(buf)
	g.MakeResident(buf)
	if st := g.Stats(); st.BytesH2D != 8*16 {
		t.Fatalf("double pin charged twice: %d", st.BytesH2D)
	}
}

func TestTransferPolicyString(t *testing.T) {
	if PolicyOffloaded.String() != "offloaded" || PolicyChatty.String() != "chatty" {
		t.Fatal("bad policy strings")
	}
	if TransferPolicy(9).String() == "" {
		t.Fatal("unknown policy must still render")
	}
}

func TestParallelWorkersDefault(t *testing.T) {
	p := NewParallel(0)
	if p.Workers() < 1 {
		t.Fatalf("default workers = %d", p.Workers())
	}
	if NewParallel(3).Workers() != 3 {
		t.Fatal("explicit workers not honored")
	}
}
