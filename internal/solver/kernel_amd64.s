#include "go_asm.h"
#include "textflag.h"

// The AVX step kernel (kernel_amd64.go). Each macro is one stepBlock
// expression on a row of four lanes, its operands in stepBlock's
// order; a product is rounded before it is summed (no FMA). Two-block
// code runs each macro once per block, so the blocks' chains overlap.
//
// Throughout: Y15 = dt in every lane, Y14 = the mask that clears the
// sign bit (math.Abs), Y11 = +0 from the air steps on, AX and R14 are
// scratch offsets. In a loop over edges AX and DX (heat) or AX and R14
// (air, exhaust) hold the entry's two byte offsets.

// DELTA: d = |v-o| > d ? |v-o| : d. VMAXPD returns its second source
// unless the first is greater, so a NaN keeps d, as stepBlock's
// "if x > d" does. Clobbers v.
#define DELTA(v, o, d) \
	VSUBPD o, v, v; \
	VANDPD Y14, v, v; \
	VMAXPD d, v, d

// HEAT: x = k*(t[a]-t[b])*dt; q[a] -= x; q[b] += x, with the heat row
// at c+CX and nodes a = AX, b = DX.
#define HEAT(t, q, c, x, y) \
	VMOVUPD (t)(AX*1), x; \
	VSUBPD (t)(DX*1), x, x; \
	VMULPD (c)(CX*1), x, x; \
	VMULPD Y15, x, x; \
	VMOVUPD (q)(AX*1), y; \
	VSUBPD x, y, y; \
	VMOVUPD y, (q)(AX*1); \
	VADDPD (q)(DX*1), x, y; \
	VMOVUPD y, (q)(DX*1)

// COMP: component row BX at node DX: x = w*dt; e += x;
// t = o + (q+x)*(1/(m*c)); then the delta.
#define COMP(t, q, w, k, e, d, x, y, o) \
	VMULPD (w)(BX*1), Y15, x; \
	VADDPD x, e, e; \
	VADDPD (q)(DX*1), x, y; \
	VMULPD (k)(BX*1), y, y; \
	VMOVUPD (t)(DX*1), o; \
	VADDPD y, o, y; \
	VMOVUPD y, (t)(DX*1); \
	DELTA(y, o, d)

// FLOW: s += c[AX]*t[R14], an incoming edge's or a couple's term.
#define FLOW(t, c, s, x) \
	VMOVUPD (c)(AX*1), x; \
	VMULPD (t)(R14*1), x, x; \
	VADDPD x, s, s

// MIX: o = t[DI]; s = wSum > 0 ? s/wSum : o.
#define MIX(t, a, s, o, w) \
	VMOVUPD (t)(DI*1), o; \
	VMOVUPD laneAirCoef_wSum(a), w; \
	VDIVPD w, s, s; \
	VCMPPD $0x1e, Y11, w, w; \
	VBLENDVPD w, s, o, s

// PICKUP: v = fkSum > 0 ? (fCoef*v + k)/fkSum : v; t[DI] = v; then
// the delta against o.
#define PICKUP(t, a, v, k, o, x, f, d) \
	VMULPD laneAirCoef_fCoef(a), v, x; \
	VADDPD k, x, x; \
	VMOVUPD laneAirCoef_fkSum(a), f; \
	VDIVPD f, x, x; \
	VCMPPD $0x1e, Y11, f, f; \
	VBLENDVPD f, x, v, v; \
	VMOVUPD v, (t)(DI*1); \
	DELTA(v, o, d)

// EXH: an exhaust node: ws += f; x += f*t[R14], f the row at c+AX.
#define EXH(t, c, ws, x, f) \
	VMOVUPD (c)(AX*1), f; \
	VADDPD f, ws, ws; \
	VMULPD (t)(R14*1), f, f; \
	VADDPD f, x, x

// GATHER: y = the four float64s that the pointers at off(blk) point at.
#define GATHER(off, blk, y, x, tmp) \
	MOVQ off+0(blk), R14; \
	VMOVSD (R14), x; \
	MOVQ off+8(blk), R14; \
	VMOVHPD (R14), x, x; \
	MOVQ off+16(blk), R14; \
	VMOVSD (R14), tmp; \
	MOVQ off+24(blk), R14; \
	VMOVHPD (R14), tmp, tmp; \
	VINSERTF128 $1, tmp, y, y

// SCATTER: for each bit l set in bits, *(off+8l)(blk) = y[l]; x is y's
// low half, and is clobbered.
#define SCATTER(bits, off, blk, y, x, l1, l2, l3, l4) \
	BTQ $0, bits; \
	JCC l1; \
	MOVQ off+0(blk), R14; \
	VMOVSD x, (R14); \
l1: \
	BTQ $1, bits; \
	JCC l2; \
	MOVQ off+8(blk), R14; \
	VMOVHPD x, (R14); \
l2: \
	VEXTRACTF128 $1, y, x; \
	BTQ $2, bits; \
	JCC l3; \
	MOVQ off+16(blk), R14; \
	VMOVSD x, (R14); \
l3: \
	BTQ $3, bits; \
	JCC l4; \
	MOVQ off+24(blk), R14; \
	VMOVHPD x, (R14); \
l4:

// EXHAUST: the exhaust mix x/ws to each owned lane with ws > 0.
#define EXHAUST(blk, ws, x, xx, l1, l2, l3, l4) \
	VDIVPD ws, x, x; \
	VCMPPD $0x1e, Y11, ws, ws; \
	VMOVMSKPD ws, AX; \
	ANDQ blockKern_lanes(blk), AX; \
	SCATTER(AX, blockKern_exhaust, blk, x, xx, l1, l2, l3, l4)

// func stepOneAVX(k *shapeKern, a *blockKern, dt float64, q *[4]float64, d *[4]float64)
TEXT ·stepOneAVX(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ q+24(FP), R12
	MOVQ blockKern_t(R8), R10
	VBROADCASTSD dt+16(FP), Y15
	MOVQ $0x7fffffffffffffff, AX
	VMOVQ AX, X14
	VMOVDDUP X14, X14
	VINSERTF128 $1, X14, Y14, Y14
	VXORPD Y13, Y13, Y13

	// Zero the net-heat scratch.
	VXORPD Y0, Y0, Y0
	MOVQ shapeKern_nodes(DI), CX
	SHLQ $5, CX
	XORQ AX, AX

zero1:
	VMOVUPD Y0, (R12)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     zero1

	// Heat edges.
	MOVQ shapeKern_heat(DI), SI
	MOVQ shapeKern_heat+8(DI), BX
	LEAQ (SI)(BX*4), BX
	MOVQ blockKern_coef(R8), DI
	XORQ CX, CX
	CMPQ SI, BX
	JAE  heat1done

heat1:
	MOVLQSX 0(SI), AX
	MOVLQSX 4(SI), DX
	HEAT(R10, R12, DI, Y0, Y2)
	ADDQ    $8, SI
	ADDQ    $32, CX
	CMPQ    SI, BX
	JB      heat1

heat1done:
	// Components, with the energy sum.
	MOVQ k+0(FP), DI
	GATHER(blockKern_energy, R8, Y10, X10, X0)
	MOVQ shapeKern_inv(DI), AX
	MOVQ shapeKern_comp(DI), SI
	MOVQ shapeKern_comp+8(DI), CX
	MOVQ blockKern_draws(R8), DI
	MOVQ blockKern_coef(R8), R8
	ADDQ AX, R8
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  comp1done

comp1:
	MOVLQSX (SI), DX
	COMP(R10, R12, DI, R8, Y10, Y13, Y0, Y2, Y4)
	ADDQ    $4, SI
	ADDQ    $32, BX
	DECQ    CX
	JNZ     comp1

comp1done:
	MOVQ a+8(FP), R8
	MOVQ blockKern_lanes(R8), AX
	SCATTER(AX, blockKern_energy, R8, Y10, X10, e1l1, e1l2, e1l3, e1l4)

	// The inlet.
	MOVQ k+0(FP), DI
	MOVQ shapeKern_inlet(DI), DX
	GATHER(blockKern_inlet, R8, Y0, X0, X2)
	VMOVUPD (R10)(DX*1), Y4
	VMOVUPD Y0, (R10)(DX*1)
	DELTA(Y0, Y4, Y13)

	// The air steps.
	MOVQ shapeKern_air(DI), SI
	MOVQ shapeKern_air+8(DI), CX
	LEAQ (SI)(CX*4), CX
	MOVQ shapeKern_flows(DI), BX
	MOVQ blockKern_air(R8), R12
	MOVQ blockKern_coef(R8), R8
	VXORPD Y11, Y11, Y11

air1:
	CMPQ    SI, CX
	JAE     air1done
	MOVLQSX 0(SI), DI
	MOVLQSX 4(SI), DX
	VXORPD  Y0, Y0, Y0
	TESTQ   DX, DX
	JEQ     in1done

in1:
	MOVLQSX 0(BX), AX
	MOVLQSX 4(BX), R14
	FLOW(R10, R8, Y0, Y6)
	ADDQ    $8, BX
	DECQ    DX
	JNZ     in1

in1done:
	MIX(R10, R12, Y0, Y4, Y6)
	MOVLQSX 8(SI), DX
	VXORPD  Y2, Y2, Y2
	TESTQ   DX, DX
	JEQ     k1done

k1:
	MOVLQSX 0(BX), AX
	MOVLQSX 4(BX), R14
	FLOW(R10, R8, Y2, Y6)
	ADDQ    $8, BX
	DECQ    DX
	JNZ     k1

k1done:
	PICKUP(R10, R12, Y0, Y2, Y4, Y6, Y8, Y13)
	ADDQ $12, SI
	ADDQ $laneAirCoef__size, R12
	JMP  air1

air1done:
	// The exhaust mix.
	MOVQ k+0(FP), DI
	MOVQ shapeKern_exhaust(DI), SI
	MOVQ shapeKern_exhaust+8(DI), CX
	LEAQ (SI)(CX*4), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	CMPQ SI, CX
	JAE  ex1done

ex1:
	MOVLQSX 0(SI), AX
	MOVLQSX 4(SI), R14
	EXH(R10, R8, Y0, Y2, Y4)
	ADDQ    $8, SI
	CMPQ    SI, CX
	JB      ex1

ex1done:
	MOVQ a+8(FP), R8
	EXHAUST(R8, Y0, Y2, X2, x1l1, x1l2, x1l3, x1l4)
	MOVQ    d+32(FP), AX
	VMOVUPD Y13, (AX)
	VZEROUPPER
	RET

// func stepTwoAVX(k *shapeKern, a, b *blockKern, dt float64, qa, qb *[4]float64, d *[2][4]float64)
//
// stepOneAVX for two blocks of one shape, each macro once per block:
// block a in R8, R10, R12, Y10 (energy), Y13 (delta) and the even
// registers of Y0-Y8, block b in R9, R11, R13, Y11, Y12 and the odd
// ones.
TEXT ·stepTwoAVX(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ qa+32(FP), R12
	MOVQ qb+40(FP), R13
	MOVQ blockKern_t(R8), R10
	MOVQ blockKern_t(R9), R11
	VBROADCASTSD dt+24(FP), Y15
	MOVQ $0x7fffffffffffffff, AX
	VMOVQ AX, X14
	VMOVDDUP X14, X14
	VINSERTF128 $1, X14, Y14, Y14
	VXORPD Y13, Y13, Y13
	VXORPD Y12, Y12, Y12

	VXORPD Y0, Y0, Y0
	MOVQ shapeKern_nodes(DI), CX
	SHLQ $5, CX
	XORQ AX, AX

zero2:
	VMOVUPD Y0, (R12)(AX*1)
	VMOVUPD Y0, (R13)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     zero2

	MOVQ shapeKern_heat(DI), SI
	MOVQ shapeKern_heat+8(DI), BX
	LEAQ (SI)(BX*4), BX
	MOVQ blockKern_coef(R8), DI
	MOVQ blockKern_coef(R9), R14
	XORQ CX, CX
	CMPQ SI, BX
	JAE  heat2done

heat2:
	MOVLQSX 0(SI), AX
	MOVLQSX 4(SI), DX
	HEAT(R10, R12, DI, Y0, Y2)
	HEAT(R11, R13, R14, Y1, Y3)
	ADDQ    $8, SI
	ADDQ    $32, CX
	CMPQ    SI, BX
	JB      heat2

heat2done:
	MOVQ k+0(FP), DI
	GATHER(blockKern_energy, R8, Y10, X10, X0)
	GATHER(blockKern_energy, R9, Y11, X11, X1)
	MOVQ shapeKern_inv(DI), AX
	MOVQ shapeKern_comp(DI), SI
	MOVQ shapeKern_comp+8(DI), CX
	MOVQ blockKern_draws(R8), DI
	MOVQ blockKern_draws(R9), R14
	MOVQ blockKern_coef(R8), R8
	ADDQ AX, R8
	MOVQ blockKern_coef(R9), R9
	ADDQ AX, R9
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  comp2done

comp2:
	MOVLQSX (SI), DX
	COMP(R10, R12, DI, R8, Y10, Y13, Y0, Y2, Y4)
	COMP(R11, R13, R14, R9, Y11, Y12, Y1, Y3, Y5)
	ADDQ    $4, SI
	ADDQ    $32, BX
	DECQ    CX
	JNZ     comp2

comp2done:
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ blockKern_lanes(R8), AX
	SCATTER(AX, blockKern_energy, R8, Y10, X10, e2l1, e2l2, e2l3, e2l4)
	MOVQ blockKern_lanes(R9), AX
	SCATTER(AX, blockKern_energy, R9, Y11, X11, e3l1, e3l2, e3l3, e3l4)

	MOVQ k+0(FP), DI
	MOVQ shapeKern_inlet(DI), DX
	GATHER(blockKern_inlet, R8, Y0, X0, X2)
	GATHER(blockKern_inlet, R9, Y1, X1, X3)
	VMOVUPD (R10)(DX*1), Y4
	VMOVUPD Y0, (R10)(DX*1)
	DELTA(Y0, Y4, Y13)
	VMOVUPD (R11)(DX*1), Y5
	VMOVUPD Y1, (R11)(DX*1)
	DELTA(Y1, Y5, Y12)

	MOVQ shapeKern_air(DI), SI
	MOVQ shapeKern_air+8(DI), CX
	LEAQ (SI)(CX*4), CX
	MOVQ shapeKern_flows(DI), BX
	MOVQ blockKern_air(R8), R12
	MOVQ blockKern_air(R9), R13
	MOVQ blockKern_coef(R8), R8
	MOVQ blockKern_coef(R9), R9
	VXORPD Y11, Y11, Y11

air2:
	CMPQ    SI, CX
	JAE     air2done
	MOVLQSX 0(SI), DI
	MOVLQSX 4(SI), DX
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	TESTQ   DX, DX
	JEQ     in2done

in2:
	MOVLQSX 0(BX), AX
	MOVLQSX 4(BX), R14
	FLOW(R10, R8, Y0, Y6)
	FLOW(R11, R9, Y1, Y7)
	ADDQ    $8, BX
	DECQ    DX
	JNZ     in2

in2done:
	MIX(R10, R12, Y0, Y4, Y6)
	MIX(R11, R13, Y1, Y5, Y7)
	MOVLQSX 8(SI), DX
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	TESTQ   DX, DX
	JEQ     k2done

k2:
	MOVLQSX 0(BX), AX
	MOVLQSX 4(BX), R14
	FLOW(R10, R8, Y2, Y6)
	FLOW(R11, R9, Y3, Y7)
	ADDQ    $8, BX
	DECQ    DX
	JNZ     k2

k2done:
	PICKUP(R10, R12, Y0, Y2, Y4, Y6, Y8, Y13)
	PICKUP(R11, R13, Y1, Y3, Y5, Y7, Y9, Y12)
	ADDQ $12, SI
	ADDQ $laneAirCoef__size, R12
	ADDQ $laneAirCoef__size, R13
	JMP  air2

air2done:
	MOVQ k+0(FP), DI
	MOVQ shapeKern_exhaust(DI), SI
	MOVQ shapeKern_exhaust+8(DI), CX
	LEAQ (SI)(CX*4), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ SI, CX
	JAE  ex2done

ex2:
	MOVLQSX 0(SI), AX
	MOVLQSX 4(SI), R14
	EXH(R10, R8, Y0, Y2, Y4)
	EXH(R11, R9, Y1, Y3, Y5)
	ADDQ    $8, SI
	CMPQ    SI, CX
	JB      ex2

ex2done:
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	EXHAUST(R8, Y0, Y2, X2, x2l1, x2l2, x2l3, x2l4)
	EXHAUST(R9, Y1, Y3, X3, x3l1, x3l2, x3l3, x3l4)
	MOVQ    d+48(FP), AX
	VMOVUPD Y13, (AX)
	VMOVUPD Y12, 32(AX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
