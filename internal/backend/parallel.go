package backend

import (
	"runtime"
	"sync"

	"streambrain/internal/tensor"
)

func init() {
	Register("parallel", func(workers int) Backend { return NewParallel(workers) })
	Register32("parallel", func(workers int) Backend32 { return NewParallelOf[float32](workers) })
}

// Parallel is the goroutine worker-team backend — the Go analogue of
// StreamBrain's OpenMP+SIMD CPU backend. Kernels are cache-blocked and
// sharded across a fixed worker count; inner loops are unit-stride and
// dispatch to the AVX2+FMA microkernels where available, so the float32
// instantiation processes twice the lanes per instruction.
//
// Every kernel shards through the one fan-out loop, parallelFor, over the
// serial tensor kernels' row-range forms (DESIGN.md §2). A row band never
// changes an element's arithmetic, and Lerp's flat element bands start on
// lane-aligned boundaries (lerpAlign), so every kernel is bit-identical at
// every worker count.
type Parallel[T tensor.Float] struct {
	workers int
}

// Minimum item counts below which a kernel runs serially: sharding a smaller
// problem costs more in goroutine start-up than the work it splits. The
// trace and weight kernels shard at any size.
const (
	minGEMMRows  = 2 * tensor.DefaultBlock // MatMul: rows of a
	minATBRows   = 64                      // MatMulATB: rows of dst
	minLerpElems = 1 << 14                 // Lerp, LerpMatrix: elements
	minBatchRows = 4                       // gather, bias, softmax: batch rows
)

// lerpAlign is the element stride Lerp bands are cut on, the last band
// taking the remainder. It is a multiple of both SIMD lane widths (4 float64,
// 8 float32) and no shorter than the tensor kernels' SIMD minimum length
// (16), so every band splits into vector body and scalar tail exactly where
// the whole slice does — the body fuses its multiply-add and the tail does
// not, so a band edge off that split would move the last bit.
const lerpAlign = 16

// NewParallel returns the float64 Parallel backend with the given team size.
// workers <= 0 selects GOMAXPROCS.
func NewParallel(workers int) *Parallel[float64] { return NewParallelOf[float64](workers) }

// NewParallelOf returns a Parallel backend of the given precision.
func NewParallelOf[T tensor.Float](workers int) *Parallel[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Parallel[T]{workers: workers}
}

// Name implements Kernels.
func (p *Parallel[T]) Name() string { return "parallel" }

// Workers implements Kernels.
func (p *Parallel[T]) Workers() int { return p.workers }

// rangeKernel is one sharded kernel call: its operands, by value, plus the
// serial body over the item range [lo, hi).
type rangeKernel interface{ run(lo, hi int) }

// parallelFor runs k over [0,n) split into ceil(n/workers) contiguous bands,
// one goroutine per band, and returns when all are done. With one worker, or
// fewer than minSize items, it runs k.run(0, n) inline. k is a plain value
// whose body is a method, not a closure — a func literal in a generic kernel
// captures the instantiation's type dictionary and is heap-allocated where it
// is built — so the serial path allocates nothing; only the sharded branch
// pays for goroutines.
func parallelFor[K rangeKernel](workers, n, minSize int, k K) {
	workers = min(workers, n)
	if workers <= 1 || n < minSize {
		k.run(0, n)
		return
	}
	// The goroutines capture shared, not k: a large k captured directly
	// would move to the heap on entry, serial path included.
	shared := k
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		lo, hi := lo, min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared.run(lo, hi)
		}()
	}
	wg.Wait()
}

// The sharded kernels of this backend, one operand set each.
type (
	matMulOp[T tensor.Float]    struct{ dst, a, b *tensor.Dense[T] }
	matMulATBOp[T tensor.Float] matMulOp[T] // sharded by dst row
	addBiasOp[T tensor.Float]   struct {
		m    *tensor.Dense[T]
		bias []T
	}
	softmaxOp[T tensor.Float] struct {
		m             *tensor.Dense[T]
		groups, width int
		temperature   float64
	}
	lerpOp[T tensor.Float] struct {
		dst, src []T
		t        T
	}
	// gatherOp is OneHotMatMul, or OneHotMatMulSparse when bi is set.
	gatherOp[T tensor.Float] struct {
		dst, w *tensor.Dense[T]
		idx    [][]int32
		bi     *tensor.BlockIndex
	}
	// traceOp is OneHotOuterLerp, or OneHotOuterLerpSparse when bi is set.
	traceOp[T tensor.Float] struct {
		cij, act *tensor.Dense[T]
		idx      [][]int32
		t        float64
		bi       *tensor.BlockIndex
	}
	// weightOp is UpdateWeights, or UpdateWeightsSparse when bi is set.
	weightOp[T tensor.Float] struct {
		w, cij *tensor.Dense[T]
		ci, cj []T
		mask   []bool
		geom   LayerGeom
		eps    float64
		bi     *tensor.BlockIndex
	}
)

func (o matMulOp[T]) run(lo, hi int) {
	tensor.MatMulBlockedRows(o.dst, o.a, o.b, tensor.DefaultBlock, lo, hi)
}

func (o matMulATBOp[T]) run(lo, hi int) { tensor.MatMulATBRows(o.dst, o.a, o.b, lo, hi) }

func (o addBiasOp[T]) run(lo, hi int) { addBiasRange(o.m, o.bias, lo, hi) }

func (o softmaxOp[T]) run(lo, hi int) {
	tensor.SoftmaxGroupsRows(o.m, o.groups, o.width, o.temperature, lo, hi)
}

// run covers lerpAlign-element chunks [lo, hi); the last chunk runs to the
// end of the slice.
func (o lerpOp[T]) run(lo, hi int) {
	end := hi * lerpAlign
	if end+lerpAlign > len(o.dst) {
		end = len(o.dst)
	}
	tensor.Lerp(o.dst[lo*lerpAlign:end], o.src[lo*lerpAlign:end], o.t)
}

func (o gatherOp[T]) run(lo, hi int) {
	if o.bi != nil {
		tensor.OneHotMatMulSparseRows(o.dst, o.idx, o.w, o.bi, lo, hi)
		return
	}
	tensor.OneHotMatMulRows(o.dst, o.idx, o.w, lo, hi)
}

func (o traceOp[T]) run(lo, hi int) {
	if o.bi != nil {
		oneHotOuterLerpSparseRange(o.cij, o.idx, o.act, o.t, o.bi, lo, hi)
		return
	}
	oneHotOuterLerpRange(o.cij, o.idx, o.act, o.t, lo, hi)
}

func (o weightOp[T]) run(lo, hi int) {
	if o.bi != nil {
		updateWeightsSparseRange(o.w, o.ci, o.cj, o.cij, o.bi, o.eps, lo, hi)
		return
	}
	g := o.geom
	updateWeightsRange(o.w, o.ci, o.cj, o.cij, o.mask, g.Fi, g.Mi, g.H, g.M, o.eps, lo, hi)
}

// MatMul implements Kernels.
func (p *Parallel[T]) MatMul(dst, a, b *tensor.Dense[T]) {
	parallelFor(p.workers, a.Rows, minGEMMRows, matMulOp[T]{dst, a, b})
}

// MatMulATB implements Kernels, sharded by dst row band (a band of a's
// columns), so no worker writes another's rows.
func (p *Parallel[T]) MatMulATB(dst, a, b *tensor.Dense[T]) {
	parallelFor(p.workers, dst.Rows, minATBRows, matMulATBOp[T]{dst, a, b})
}

// OneHotMatMul implements Kernels.
func (p *Parallel[T]) OneHotMatMul(dst *tensor.Dense[T], idx [][]int32, w *tensor.Dense[T]) {
	parallelFor(p.workers, len(idx), minBatchRows, gatherOp[T]{dst: dst, w: w, idx: idx})
}

// AddBias implements Kernels.
func (p *Parallel[T]) AddBias(m *tensor.Dense[T], bias []T) {
	parallelFor(p.workers, m.Rows, minBatchRows, addBiasOp[T]{m, bias})
}

// SoftmaxGroups implements Kernels.
func (p *Parallel[T]) SoftmaxGroups(m *tensor.Dense[T], groups, width int, temperature float64) {
	parallelFor(p.workers, m.Rows, minBatchRows, softmaxOp[T]{m, groups, width, temperature})
}

// Lerp implements Kernels.
func (p *Parallel[T]) Lerp(dst, src []T, t float64) {
	if len(dst) != len(src) {
		panic("backend: Lerp length mismatch")
	}
	parallelFor(p.workers, len(dst)/lerpAlign, minLerpElems/lerpAlign, lerpOp[T]{dst, src, T(t)})
}

// LerpMatrix implements Kernels.
func (p *Parallel[T]) LerpMatrix(dst, src *tensor.Dense[T], t float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("backend: LerpMatrix shape mismatch")
	}
	p.Lerp(dst.Data, src.Data, t)
}

// OneHotMeanLerp implements Kernels. The Ci trace is short (total input
// units); sharding it would cost more than it saves, so it stays serial.
func (p *Parallel[T]) OneHotMeanLerp(ci []T, idx [][]int32, t float64) {
	oneHotMeanLerp(ci, idx, t)
}

// OneHotOuterLerp implements Kernels. The Cij trace is the largest state in
// the model (inputs × hidden units); it is sharded by trace row band so each
// worker owns a disjoint slice and no locking is needed.
func (p *Parallel[T]) OneHotOuterLerp(cij *tensor.Dense[T], idx [][]int32, act *tensor.Dense[T], t float64) {
	parallelFor(p.workers, cij.Rows, 1, traceOp[T]{cij: cij, act: act, idx: idx, t: t})
}

// OuterLerp implements Kernels.
func (p *Parallel[T]) OuterLerp(cij *tensor.Dense[T], a, b *tensor.Dense[T], t float64) {
	outerLerp(cij, a, b, t, p.MatMulATB)
}

// UpdateWeights implements Kernels.
func (p *Parallel[T]) UpdateWeights(w *tensor.Dense[T], ci, cj []T, cij *tensor.Dense[T],
	mask []bool, fi, mi, h, m int, eps float64) {
	parallelFor(p.workers, w.Rows, 1, weightOp[T]{w: w, cij: cij, ci: ci, cj: cj, mask: mask,
		geom: LayerGeom{fi, mi, h, m}, eps: eps})
}

// UpdateBias implements Kernels.
func (p *Parallel[T]) UpdateBias(bias, kbi, cj []T, eps float64) {
	updateBias(bias, kbi, cj, eps)
}

// OneHotMatMulSparse implements Kernels.
func (p *Parallel[T]) OneHotMatMulSparse(dst *tensor.Dense[T], idx [][]int32, w *tensor.Dense[T],
	bi *tensor.BlockIndex) {
	parallelFor(p.workers, len(idx), minBatchRows, gatherOp[T]{dst, w, idx, bi})
}

// OneHotOuterLerpSparse implements Kernels. Sharded by trace row band like
// the dense kernel; the band split is row-aligned so every worker applies the
// shared sparse range helper to whole rows and the result is bit-identical at
// any worker count.
func (p *Parallel[T]) OneHotOuterLerpSparse(cij *tensor.Dense[T], idx [][]int32,
	act *tensor.Dense[T], t float64, bi *tensor.BlockIndex) {
	parallelFor(p.workers, cij.Rows, 1, traceOp[T]{cij, act, idx, t, bi})
}

// UpdateWeightsSparse implements Kernels.
func (p *Parallel[T]) UpdateWeightsSparse(w *tensor.Dense[T], ci, cj []T, cij *tensor.Dense[T],
	bi *tensor.BlockIndex, eps float64) {
	parallelFor(p.workers, w.Rows, 1, weightOp[T]{w: w, cij: cij, ci: ci, cj: cj, eps: eps, bi: bi})
}
