//go:build amd64 && !purego

package tensor

// simdEnabled reports whether the AVX2+FMA microkernels in simd_amd64.s may
// be used. Detection follows the Intel manual: the CPU must advertise AVX,
// AVX2 and FMA, and the OS must have enabled XMM/YMM state saving (OSXSAVE
// plus XCR0 bits 1-2), otherwise executing VEX instructions faults.
var simdEnabled = detectSIMD()

func detectSIMD() bool {
	maxLeaf, _, _, _ := cpuidLow(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidLow(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	_, b7, _, _ := cpuidLow(7, 0)
	if b7&(1<<5) == 0 { // AVX2
		return false
	}
	xcr0, _ := xgetbv0()
	return xcr0&6 == 6 // XMM and YMM state enabled by the OS
}

// Assembly kernels (simd_amd64.s). Callers must pre-truncate dst to a
// multiple of the lane width; see the dispatch wrappers in simd.go.

func axpy2F32AVX(a0, a1 float32, b0, b1, dst []float32)
func axpy2F64AVX(a0, a1 float64, b0, b1, dst []float64)
func axpyF32AVX(a float32, x, y []float32)
func axpyF64AVX(a float64, x, y []float64)
func lerpF32AVX(dst, src []float32, omt, t float32)
func lerpF64AVX(dst, src []float64, omt, t float64)
func scaleF32AVX(a float32, x []float32)
func scaleF64AVX(a float64, x []float64)
func addF32AVX(dst, src []float32)
func addF64AVX(dst, src []float64)

// maxF64AVX returns the running max of x; see the assembly.
func maxF64AVX(x []float64) float64

// softmaxExpF64AVX exponentiates x in place and sums it; see the assembly.
// Unlike the kernels above it may stop short of len(x) and returns how far
// it got.
func softmaxExpF64AVX(x []float64, maxv, temperature float64) (n int, sum float64)

func cpuidLow(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
