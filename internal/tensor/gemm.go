package tensor

import "fmt"

// DefaultBlock is the cache-block edge used by the blocked GEMM kernels.
// 64×64 float64 tiles are 32 KiB — sized for a typical L1d cache (float32
// tiles are half that, which only helps). The block size is a parameter so
// the blocking ablation bench can sweep it; it is a multiple of both SIMD
// lane widths so blocked panels stay lane-aligned.
const DefaultBlock = 64

func checkGEMM[T Float](dst, a, b *Dense[T]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GEMM shape mismatch dst %dx%d = a %dx%d * b %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == a || dst == b {
		panic("tensor: GEMM destination must not alias an operand")
	}
}

// MatMulNaive computes dst = a·b with the textbook triple loop (ikj order so
// the inner loop is unit-stride). It is the reference every other kernel is
// cross-checked against.
func MatMulNaive[T Float](dst, a, b *Dense[T]) {
	checkGEMM(dst, a, b)
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulBlocked computes dst = a·b using cache blocking with the given block
// edge. block <= 0 selects DefaultBlock. The kernel accumulates into dst
// tiles that stay resident in L1 while streaming panels of a and b.
func MatMulBlocked[T Float](dst, a, b *Dense[T], block int) {
	MatMulBlockedRows(dst, a, b, block, 0, a.Rows)
}

// MatMulBlockedRows is MatMulBlocked restricted to dst rows [r0, r1): it
// zeroes and computes only that band, so disjoint bands can run on separate
// workers. Every element's accumulation order is independent of the band
// split, so banded results are bit-identical to the whole-matrix call. The
// innermost j sweep is the fused two-row axpy2 microkernel, which dispatches
// to AVX2+FMA when available — there float32 processes twice the lanes per
// instruction, which is the entire hardware case for the reduced-precision
// path.
func MatMulBlockedRows[T Float](dst, a, b *Dense[T], block, r0, r1 int) {
	checkGEMM(dst, a, b)
	if block <= 0 {
		block = DefaultBlock
	}
	clear(dst.Data[r0*dst.Cols : r1*dst.Cols])
	k, n := a.Cols, b.Cols
	for ii := r0; ii < r1; ii += block {
		iMax := min(ii+block, r1)
		for kk := 0; kk < k; kk += block {
			kMax := min(kk+block, k)
			for jj := 0; jj < n; jj += block {
				jMax := min(jj+block, n)
				for i := ii; i < iMax; i++ {
					arow := a.Data[i*k : i*k+k]
					drow := dst.Data[i*n+jj : i*n+jMax]
					// 2-way unroll over the reduction dimension keeps two
					// independent FMA chains in flight.
					kkk := kk
					for ; kkk+1 < kMax; kkk += 2 {
						av0 := arow[kkk]
						av1 := arow[kkk+1]
						if av0 == 0 && av1 == 0 {
							continue
						}
						b0 := b.Data[kkk*n+jj : kkk*n+jMax]
						b1 := b.Data[(kkk+1)*n+jj : (kkk+1)*n+jMax]
						axpy2(av0, av1, b0, b1, drow)
					}
					for ; kkk < kMax; kkk++ {
						av := arow[kkk]
						if av == 0 {
							continue
						}
						brow := b.Data[kkk*n+jj : kkk*n+jMax]
						axpyDispatch(av, brow, drow)
					}
				}
			}
		}
	}
}

// MatMulATB computes dst = aᵀ·b without materializing the transpose.
// a is m×r, b is m×n, dst is r×n. This is the shape of the BCPNN joint-trace
// update E[x πᵀ] where a holds a batch of inputs and b a batch of activations.
func MatMulATB[T Float](dst, a, b *Dense[T]) {
	MatMulATBRows(dst, a, b, 0, dst.Rows)
}

// MatMulATBRows is MatMulATB restricted to dst rows [r0, r1) — a band of a's
// columns — so disjoint bands can accumulate on separate workers without
// synchronization; a and b are read-only.
func MatMulATBRows[T Float](dst, a, b *Dense[T], r0, r1 int) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch dst %dx%d = aT %dx%d * b %dx%d",
			dst.Rows, dst.Cols, a.Cols, a.Rows, b.Rows, b.Cols))
	}
	n := b.Cols
	clear(dst.Data[r0*n : r1*n])
	for s := 0; s < a.Rows; s++ {
		arow := a.Row(s)[r0:r1]
		brow := b.Row(s)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpyDispatch(av, brow, dst.Row(r0+i))
		}
	}
}

// OneHotMatMul computes dst = X·W where X is a batch of concatenated one-hot
// groups given by active indices instead of a dense matrix: sample s has
// exactly len(idx[s]) active inputs (value 1) at the listed positions.
// W is in×out, dst is batch×out. Exploiting the one-hot structure turns the
// input GEMM into len(idx[s]) row gathers per sample, the optimization the
// StreamBrain paper attributes to the quantile one-hot encoding (§V).
func OneHotMatMul[T Float](dst *Dense[T], idx [][]int32, w *Dense[T]) {
	OneHotMatMulRows(dst, idx, w, 0, len(idx))
}

// OneHotMatMulRows is OneHotMatMul restricted to samples [r0, r1).
func OneHotMatMulRows[T Float](dst *Dense[T], idx [][]int32, w *Dense[T], r0, r1 int) {
	if dst.Rows != len(idx) || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: OneHotMatMul shape mismatch dst %dx%d, idx %d, w %dx%d",
			dst.Rows, dst.Cols, len(idx), w.Rows, w.Cols))
	}
	n := w.Cols
	for s := r0; s < r1; s++ {
		drow := dst.Row(s)
		clear(drow)
		for _, in := range idx[s] {
			addDispatch(drow, w.Data[int(in)*n:int(in)*n+n])
		}
	}
}
