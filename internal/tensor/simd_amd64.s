// AVX2+FMA microkernels for the float32 and float64 hot loops. Pure
// vector-body loops: every function requires len(dst) to be a multiple of
// the lane count (8 for float32, 4 for float64) and every operand slice to
// be at least len(dst) long — the Go dispatch wrappers in simd.go truncate
// and handle the scalar tail. Only reached when simdEnabled is true
// (AVX2+FMA+OS-XSAVE verified at init), so the instructions below are safe.
//
//go:build !purego

#include "textflag.h"

// func axpy2F32AVX(a0, a1 float32, b0, b1, dst []float32)
// dst[j] += a0*b0[j] + a1*b1[j] — the GEMM inner kernel.
TEXT ·axpy2F32AVX(SB), NOSPLIT, $0-80
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	MOVQ b0_base+8(FP), SI
	MOVQ b1_base+32(FP), DX
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	XORQ AX, AX
axpy2f32loop:
	CMPQ AX, CX
	JGE  axpy2f32done
	VMOVUPS (SI)(AX*4), Y2
	VMOVUPS (DX)(AX*4), Y3
	VMOVUPS (DI)(AX*4), Y4
	VFMADD231PS Y2, Y0, Y4
	VFMADD231PS Y3, Y1, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ $8, AX
	JMP  axpy2f32loop
axpy2f32done:
	VZEROUPPER
	RET

// func axpy2F64AVX(a0, a1 float64, b0, b1, dst []float64)
TEXT ·axpy2F64AVX(SB), NOSPLIT, $0-88
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	MOVQ b0_base+16(FP), SI
	MOVQ b1_base+40(FP), DX
	MOVQ dst_base+64(FP), DI
	MOVQ dst_len+72(FP), CX
	XORQ AX, AX
axpy2f64loop:
	CMPQ AX, CX
	JGE  axpy2f64done
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DX)(AX*8), Y3
	VMOVUPD (DI)(AX*8), Y4
	VFMADD231PD Y2, Y0, Y4
	VFMADD231PD Y3, Y1, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy2f64loop
axpy2f64done:
	VZEROUPPER
	RET

// func axpyF32AVX(a float32, x, y []float32)
// y[j] += a*x[j]
TEXT ·axpyF32AVX(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	XORQ AX, AX
axpyf32loop:
	CMPQ AX, CX
	JGE  axpyf32done
	VMOVUPS (SI)(AX*4), Y2
	VMOVUPS (DI)(AX*4), Y3
	VFMADD231PS Y2, Y0, Y3
	VMOVUPS Y3, (DI)(AX*4)
	ADDQ $8, AX
	JMP  axpyf32loop
axpyf32done:
	VZEROUPPER
	RET

// func axpyF64AVX(a float64, x, y []float64)
TEXT ·axpyF64AVX(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	XORQ AX, AX
axpyf64loop:
	CMPQ AX, CX
	JGE  axpyf64done
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VFMADD231PD Y2, Y0, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpyf64loop
axpyf64done:
	VZEROUPPER
	RET

// func lerpF32AVX(dst, src []float32, omt, t float32)
// dst[j] = omt*dst[j] + t*src[j] — the exponential trace update.
TEXT ·lerpF32AVX(SB), NOSPLIT, $0-56
	VBROADCASTSS omt+48(FP), Y0
	VBROADCASTSS t+52(FP), Y1
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
lerpf32loop:
	CMPQ AX, CX
	JGE  lerpf32done
	VMOVUPS (DI)(AX*4), Y2
	VMOVUPS (SI)(AX*4), Y3
	VMULPS Y0, Y2, Y2
	VFMADD231PS Y3, Y1, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	JMP  lerpf32loop
lerpf32done:
	VZEROUPPER
	RET

// func lerpF64AVX(dst, src []float64, omt, t float64)
TEXT ·lerpF64AVX(SB), NOSPLIT, $0-64
	VBROADCASTSD omt+48(FP), Y0
	VBROADCASTSD t+56(FP), Y1
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
lerpf64loop:
	CMPQ AX, CX
	JGE  lerpf64done
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y3
	VMULPD Y0, Y2, Y2
	VFMADD231PD Y3, Y1, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  lerpf64loop
lerpf64done:
	VZEROUPPER
	RET

// func scaleF32AVX(a float32, x []float32)
// x[j] *= a — the trace decay pass.
TEXT ·scaleF32AVX(SB), NOSPLIT, $0-32
	VBROADCASTSS a+0(FP), Y0
	MOVQ x_base+8(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX
scalef32loop:
	CMPQ AX, CX
	JGE  scalef32done
	VMOVUPS (DI)(AX*4), Y2
	VMULPS Y0, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	JMP  scalef32loop
scalef32done:
	VZEROUPPER
	RET

// func scaleF64AVX(a float64, x []float64)
TEXT ·scaleF64AVX(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX
scalef64loop:
	CMPQ AX, CX
	JGE  scalef64done
	VMOVUPD (DI)(AX*8), Y2
	VMULPD Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  scalef64loop
scalef64done:
	VZEROUPPER
	RET

// func addF32AVX(dst, src []float32)
// dst[j] += src[j] — the one-hot weight-row gather.
TEXT ·addF32AVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
addf32loop:
	CMPQ AX, CX
	JGE  addf32done
	VMOVUPS (DI)(AX*4), Y2
	VMOVUPS (SI)(AX*4), Y3
	VADDPS Y3, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	JMP  addf32loop
addf32done:
	VZEROUPPER
	RET

// func addF64AVX(dst, src []float64)
TEXT ·addF64AVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
addf64loop:
	CMPQ AX, CX
	JGE  addf64done
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  addf64loop
addf64done:
	VZEROUPPER
	RET

// The exp constants of math.Exp's amd64 kernel ($GOROOT/src/math/
// exp_amd64.s, after Shibata's SLEEF), each replicated across the four
// lanes of a 32-byte entry so the FMAs below can take them as memory
// operands.
#define EXPC(off, val) \
	DATA expc<>+(off)(SB)/8, val; \
	DATA expc<>+(off+8)(SB)/8, val; \
	DATA expc<>+(off+16)(SB)/8, val; \
	DATA expc<>+(off+24)(SB)/8, val

EXPC(0x000, $1.4426950408889634073599246810018920)      // LOG2E
EXPC(0x020, $0.69314718055966295651160180568695068359375) // LN2U
EXPC(0x040, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXPC(0x060, $0.0625)
EXPC(0x080, $2.4801587301587301587e-5)
EXPC(0x0a0, $1.9841269841269841270e-4)
EXPC(0x0c0, $1.3888888888888888889e-3)
EXPC(0x0e0, $8.3333333333333333333e-3)
EXPC(0x100, $4.1666666666666666667e-2)
EXPC(0x120, $1.6666666666666666667e-1)
EXPC(0x140, $0.5)
EXPC(0x160, $1.0)
EXPC(0x180, $2.0)
EXPC(0x1a0, $0x43300000000003FF) // 2^52 + 1023: k+magic holds k+1023 in its low bits
EXPC(0x1c0, $0xC086200000000000) // -708.0, the fast path's lower bound
GLOBL expc<>(SB), RODATA, $0x1e0

// func softmaxExpF64AVX(x []float64, maxv, temperature float64) (n int, sum float64)
// x[j] = math.Exp((x[j]-maxv)/temperature) for j in [0, n), n a multiple
// of 4, returning sum = ((0 + x[0]) + x[1]) + ... + x[n-1] in index order.
// The lane arithmetic is the avxfma branch of math.Exp step for step, so it
// is bit-identical to math.Exp wherever simdEnabled holds (which implies
// math's useFMA). That branch's integer exponent k = CVTSD2SL(a*LOG2E) is
// a VROUNDPD to nearest even here, the rounding CVTSD2SL takes under Go's
// default MXCSR. The two differ only in the sign of a zero k, which can
// flip the sign of a zero reduced argument but never the result (1). The
// kernel stops before the first 4-lane
// group with an argument outside [-708, 0] or NaN: there math.Exp takes
// its overflow, denormal or special-value paths, and the Go caller finishes
// the row with it.
TEXT ·softmaxExpF64AVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VBROADCASTSD maxv+24(FP), Y15
	VBROADCASTSD temperature+32(FP), Y14
	VMOVUPD expc<>+0x1c0(SB), Y13 // -708
	VXORPD  Y12, Y12, Y12         // 0
	VXORPD  X11, X11, X11         // sum
	XORQ AX, AX
expf64loop:
	CMPQ AX, CX
	JGE  expf64done
	VMOVUPD (DI)(AX*8), Y0
	VSUBPD  Y15, Y0, Y0
	VDIVPD  Y14, Y0, Y0 // a = (x - maxv) / temperature

	// Fast-path guard: -708 <= a <= 0 on every lane (ordered: NaN fails).
	VCMPPD    $0x1d, Y13, Y0, Y1 // a >= -708
	VCMPPD    $0x12, Y12, Y0, Y2 // a <= 0
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $0xf
	JNE       expf64done

	// k = round(a*LOG2E); r = (a - k*LN2U - k*LN2L) / 16, each step fused.
	VMULPD       expc<>+0x000(SB), Y0, Y1
	VROUNDPD     $0, Y1, Y1
	VFNMADD231PD expc<>+0x020(SB), Y1, Y0
	VFNMADD231PD expc<>+0x040(SB), Y1, Y0
	VMULPD       expc<>+0x060(SB), Y0, Y0

	// Taylor polynomial in Horner form, then r *= p.
	VMOVUPD     expc<>+0x080(SB), Y2
	VFMADD213PD expc<>+0x0a0(SB), Y0, Y2
	VFMADD213PD expc<>+0x0c0(SB), Y0, Y2
	VFMADD213PD expc<>+0x0e0(SB), Y0, Y2
	VFMADD213PD expc<>+0x100(SB), Y0, Y2
	VFMADD213PD expc<>+0x120(SB), Y0, Y2
	VFMADD213PD expc<>+0x140(SB), Y0, Y2
	VFMADD213PD expc<>+0x160(SB), Y0, Y2
	VMULPD      Y2, Y0, Y0

	// Undo the /16 by squaring four times: r = r*(r+2) three times, then
	// the last step fused with the +1.
	VADDPD      expc<>+0x180(SB), Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      expc<>+0x180(SB), Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      expc<>+0x180(SB), Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      expc<>+0x180(SB), Y0, Y2
	VFMADD213PD expc<>+0x160(SB), Y2, Y0

	// Times 2^k, built from the exponent bits k+1023 (k >= -1021 here).
	VADDPD expc<>+0x1a0(SB), Y1, Y1
	VPSLLQ $52, Y1, Y1
	VMULPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)

	// sum += x[j], x[j+1], x[j+2], x[j+3] in that order.
	VADDSD       X0, X11, X11
	VPERMILPD    $1, X0, X2
	VADDSD       X2, X11, X11
	VEXTRACTF128 $1, Y0, X3
	VADDSD       X3, X11, X11
	VPERMILPD    $1, X3, X3
	VADDSD       X3, X11, X11
	ADDQ $4, AX
	JMP  expf64loop
expf64done:
	MOVQ  AX, n+40(FP)
	VMOVSD X11, sum+48(FP)
	VZEROUPPER
	RET

// func maxF64AVX(x []float64) float64
// The running max of the scalar loop m = x[0]; if v > m { m = v }: NaN
// lanes never win, and a NaN x[0] stays the answer. len(x) must be a
// positive multiple of 4. Ties between -0 and +0 may resolve either way.
TEXT ·maxF64AVX(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VBROADCASTSD (DI), Y0
	VMOVAPD Y0, Y1
	MOVQ CX, DX
	ANDQ $-8, DX
	XORQ AX, AX
maxf64loop:
	// MAXPD keeps its second operand (the accumulator) unless the first
	// (the data) is greater, so NaN data lanes never win and a NaN
	// accumulator stays NaN.
	CMPQ AX, DX
	JGE  maxf64tail
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VMAXPD  Y0, Y2, Y0
	VMAXPD  Y1, Y3, Y1
	ADDQ $8, AX
	JMP  maxf64loop
maxf64tail:
	CMPQ AX, CX
	JGE  maxf64reduce
	VMOVUPD (DI)(AX*8), Y2
	VMAXPD  Y0, Y2, Y0
maxf64reduce:
	VMAXPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, ret+24(FP)
	VZEROUPPER
	RET

// func cpuidLow(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLow(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
