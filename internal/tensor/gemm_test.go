package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const gemmTol = 1e-9

func TestMatMulNaiveKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewMatrix(2, 2)
	MatMulNaive(dst, a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !dst.Equal(want, gemmTol) {
		t.Fatalf("got %v want %v", dst, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 6, 6)
	id := NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		id.Set(i, i, 1)
	}
	dst := NewMatrix(6, 6)
	MatMulNaive(dst, a, id)
	if !dst.Equal(a, gemmTol) {
		t.Fatal("A·I != A")
	}
}

func TestGEMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulNaive(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestGEMMAliasPanics(t *testing.T) {
	a := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for aliased dst")
		}
	}()
	MatMulNaive(a, a, NewMatrix(2, 2))
}

// TestBlockedMatchesNaive is the kernel cross-check: the blocked kernel must
// agree with the reference for many shapes, including non-multiples of the
// block size and degenerate 1-row/1-col cases.
func TestBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {63, 64, 65},
		{64, 64, 64}, {100, 1, 100}, {1, 100, 1}, {37, 129, 41}}
	for _, sh := range shapes {
		a := randMatrix(rng, sh[0], sh[1])
		b := randMatrix(rng, sh[1], sh[2])
		want := NewMatrix(sh[0], sh[2])
		MatMulNaive(want, a, b)
		for _, block := range []int{0, 8, 16, 64, 128} {
			got := NewMatrix(sh[0], sh[2])
			MatMulBlocked(got, a, b, block)
			if d := got.MaxAbsDiff(want); d > gemmTol {
				t.Fatalf("shape %v block %d: max diff %g", sh, block, d)
			}
		}
	}
}

func TestMatMulATBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 40, 17)
	b := randMatrix(rng, 40, 23)
	want := NewMatrix(17, 23)
	MatMulNaive(want, a.Transpose(), b)
	got := NewMatrix(17, 23)
	MatMulATB(got, a, b)
	if d := got.MaxAbsDiff(want); d > gemmTol {
		t.Fatalf("ATB mismatch: %g", d)
	}
}

// TestGEMMLinearity is a property test: GEMM must be linear in its left
// operand, (A1+A2)·B = A1·B + A2·B.
func TestGEMMLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a1 := randMatrix(rng, m, k)
		a2 := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		sum := a1.Clone()
		for i := range sum.Data {
			sum.Data[i] += a2.Data[i]
		}
		lhs := NewMatrix(m, n)
		MatMulBlocked(lhs, sum, b, 8)
		r1 := NewMatrix(m, n)
		r2 := NewMatrix(m, n)
		MatMulBlocked(r1, a1, b, 8)
		MatMulBlocked(r2, a2, b, 8)
		for i := range r1.Data {
			r1.Data[i] += r2.Data[i]
		}
		return lhs.MaxAbsDiff(r1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOneHotMatMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const batch, groups, width, out = 9, 7, 5, 13
	in := groups * width
	w := randMatrix(rng, in, out)
	idx := make([][]int32, batch)
	dense := NewMatrix(batch, in)
	for s := 0; s < batch; s++ {
		for g := 0; g < groups; g++ {
			hot := g*width + rng.Intn(width)
			idx[s] = append(idx[s], int32(hot))
			dense.Set(s, hot, 1)
		}
	}
	want := NewMatrix(batch, out)
	MatMulNaive(want, dense, w)
	got := NewMatrix(batch, out)
	OneHotMatMul(got, idx, w)
	if d := got.MaxAbsDiff(want); d > gemmTol {
		t.Fatalf("one-hot mismatch: %g", d)
	}
}

func TestOneHotMatMulEmptyActives(t *testing.T) {
	w := randMatrix(rand.New(rand.NewSource(7)), 4, 3)
	got := NewMatrix(2, 3)
	got.Fill(99) // must be overwritten with zeros
	OneHotMatMul(got, [][]int32{{}, {}}, w)
	for _, v := range got.Data {
		if v != 0 {
			t.Fatal("empty active set should produce zero rows")
		}
	}
}

// TestParallelMatchesNaive shards a GEMM the way a worker team does —
// ceil(rows/workers) contiguous row bands, each through MatMulBlockedRows —
// and checks the assembled result against the reference kernel.
func TestParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, workers := range []int{1, 2, 3, 8} {
		a := randMatrix(rng, 150, 70)
		b := randMatrix(rng, 70, 90)
		want := NewMatrix(150, 90)
		MatMulNaive(want, a, b)
		got := NewMatrix(150, 90)
		got.Fill(99)
		band := (150 + workers - 1) / workers
		for lo := 0; lo < 150; lo += band {
			MatMulBlockedRows(got, a, b, 32, lo, min(lo+band, 150))
		}
		if d := got.MaxAbsDiff(want); d > gemmTol {
			t.Fatalf("workers=%d: max diff %g", workers, d)
		}
	}
}

// TestMatMulParallelSmallFallback covers the path a worker team takes for a
// matrix below its minimum size: one band over all rows, with a block larger
// than the matrix, must still be correct.
func TestMatMulParallelSmallFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMatrix(rng, 3, 5)
	b := randMatrix(rng, 5, 4)
	want := NewMatrix(3, 4)
	MatMulNaive(want, a, b)
	got := NewMatrix(3, 4)
	got.Fill(99)
	MatMulBlockedRows(got, a, b, 64, 0, 3)
	if d := got.MaxAbsDiff(want); d > gemmTol {
		t.Fatalf("small fallback mismatch: %g", d)
	}
}

// TestRowsFormsComposeToWhole pins the contract worker teams rely on: every
// *Rows kernel run over uneven disjoint bands reproduces the whole-matrix
// kernel bit for bit, because a band split never changes an element's
// arithmetic.
func TestRowsFormsComposeToWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, k, n = 23, 70, 45
	bands := [][2]int{{0, 5}, {5, 6}, {6, 17}, {17, rows}}
	check := func(name string, want, got *Matrix) {
		t.Helper()
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("%s: banded result differs at %d", name, i)
			}
		}
	}

	a := randMatrix(rng, rows, k)
	b := randMatrix(rng, k, n)
	want, got := NewMatrix(rows, n), NewMatrix(rows, n)
	MatMulBlocked(want, a, b, 16)
	got.Fill(99)
	for _, bd := range bands {
		MatMulBlockedRows(got, a, b, 16, bd[0], bd[1])
	}
	check("MatMulBlockedRows", want, got)

	x := randMatrix(rng, 31, rows)
	y := randMatrix(rng, 31, n)
	MatMulATB(want, x, y)
	got.Fill(99)
	for _, bd := range bands {
		MatMulATBRows(got, x, y, bd[0], bd[1])
	}
	check("MatMulATBRows", want, got)

	const fi, mi, h, m = 7, 10, 5, 9
	w := randMatrix(rng, fi*mi, h*m)
	idx := make([][]int32, rows)
	for s := range idx {
		for g := 0; g < fi; g++ {
			idx[s] = append(idx[s], int32(g*mi+rng.Intn(mi)))
		}
	}
	mask := make([]bool, fi*h)
	for i := range mask {
		mask[i] = rng.Intn(2) == 0
	}
	bi := NewBlockIndex(mask, fi, mi, h, m)
	want, got = NewMatrix(rows, h*m), NewMatrix(rows, h*m)
	OneHotMatMul(want, idx, w)
	got.Fill(99)
	for _, bd := range bands {
		OneHotMatMulRows(got, idx, w, bd[0], bd[1])
	}
	check("OneHotMatMulRows", want, got)
	OneHotMatMulSparse(want, idx, w, bi)
	got.Fill(99)
	for _, bd := range bands {
		OneHotMatMulSparseRows(got, idx, w, bi, bd[0], bd[1])
	}
	check("OneHotMatMulSparseRows", want, got)

	src := randMatrix(rng, rows, h*m)
	want.CopyFrom(src)
	got.CopyFrom(src)
	SoftmaxGroups(want, h, m, 0.8)
	for _, bd := range bands {
		SoftmaxGroupsRows(got, h, m, 0.8, bd[0], bd[1])
	}
	check("SoftmaxGroupsRows", want, got)
}
