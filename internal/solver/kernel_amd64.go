package solver

import "unsafe"

// This file holds the AVX step kernel's Go side (kernel_amd64.s holds
// the kernel). stepOneAVX steps one block and stepTwoAVX two blocks of
// one shape: each performs stepBlock's traversals with one VEX
// instruction per row of four lanes, and each lane runs stepBlock's
// expressions in stepBlock's order, every product rounded on its own
// (no fused multiply-add), so the bits are stepBlock's. The air steps
// are a chain of two divisions per region, which bounds a one-block
// kernel by divide latency; a second block's chain fills the wait
// (docs/performance.md, "The AVX kernel").
//
// The kernel reads byte offsets, not indices: a shape's are compiled
// once (compileKern) and a block's pointers are bound with its
// coefficients (bindKern), so a call builds nothing. Every pointer is
// taken from a slice resliced to the rows the kernel walks, so a bad
// window panics here rather than in the kernel.

// haveAVX says the CPU and the OS support AVX: CPUID's AVX and
// OSXSAVE bits, and XCR0's SSE and AVX state bits. It is read once;
// without it every block steps through stepBlock.
var haveAVX = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv reads XCR0 (EDX:EAX).
func xgetbv() (eax, edx uint32)

// shapeKern is a kernelShape as the AVX kernel walks it. Every node is
// its row's byte offset in the block's temperature (and scratch)
// window, every coefficient its row's byte offset in laneSet.rows.
type shapeKern struct {
	nodes   int     // rows of scratch to zero
	heat    []int32 // per heat edge: its two nodes; its k is heat row i
	comp    []int32 // per component: its node; its draw and 1/(m*c) are row i
	inv     int     // where the 1/(m*c) rows start in laneSet.rows
	inlet   int     // the inlet node
	air     []int32 // per air step: its node, its incoming edges, its couples
	flows   []int32 // per air step, each incoming edge, then each couple: coefficient, node
	exhaust []int32 // per exhaust node: coefficient (its relative flow), node
}

// compileKern compiles sh's shapeKern, its offsets in one allocation.
func (sh *kernelShape) compileKern() {
	const row = int32(len([4]float64{}) * 8)
	k := &sh.kern
	nh, nc, ncp := len(sh.heatEdges), len(sh.compNode), len(sh.coupleOther)
	entries := 0 // incoming edges and couples the air steps walk
	for _, n := range sh.airSteps {
		entries += int(sh.airInOff[n+1] - sh.airInOff[n] + sh.coupleOff[n+1] - sh.coupleOff[n])
	}
	buf := make([]int32, 0, 2*nh+nc+3*len(sh.airSteps)+2*entries+2*len(sh.exhaustIdx))
	k.nodes = len(sh.names)
	k.heat = carve(&buf, 2*nh)
	for i, e := range sh.heatEdges {
		k.heat[2*i], k.heat[2*i+1] = e.a*row, e.b*row
	}
	k.comp = carve(&buf, nc)
	for i, n := range sh.compNode {
		k.comp[i] = n * row
	}
	k.inv = nh * int(row)
	k.inlet = sh.inletIdx * int(row)
	k.air, k.flows = carve(&buf, 3*len(sh.airSteps)), carve(&buf, 2*entries)[:0]
	couples, flows := int32(nh+nc), int32(nh+nc+ncp)
	for j, n := range sh.airSteps {
		in0, in1 := sh.airInOff[n], sh.airInOff[n+1]
		k0, k1 := sh.coupleOff[n], sh.coupleOff[n+1]
		k.air[3*j], k.air[3*j+1], k.air[3*j+2] = n*row, in1-in0, k1-k0
		for p := in0; p < in1; p++ {
			k.flows = append(k.flows, (flows+p)*row, sh.flowFrom[p]*row)
		}
		for p := k0; p < k1; p++ {
			k.flows = append(k.flows, (couples+p)*row, sh.coupleOther[p]*row)
		}
	}
	k.exhaust = carve(&buf, 2*len(sh.exhaustIdx))
	exhaust := flows + int32(len(sh.airEdges))
	for i, x := range sh.exhaustIdx {
		k.exhaust[2*i], k.exhaust[2*i+1] = (exhaust+int32(i))*row, x*row
	}
}

// blockKern is a block as the AVX kernel reads it: the first row of
// its temperature, draw and coefficient windows, its air coefficients,
// and each lane's energy, inlet and exhaust. An idle lane's pointers are
// lane 0's, as block.ms names lane 0's machine; the kernel writes only
// owned lanes.
type blockKern struct {
	t, draws, coef *[4]float64
	air            *laneAirCoef
	energy         [4]*float64
	inlet          [4]*float64
	exhaust        [4]*float64
	lanes          uint64 // bit l set for each owned lane l
}

// bindKern points block bi's blockKern at its windows and its current
// coefficients.
func (r *room) bindKern(bi int32) {
	b, k := &r.blocks[bi], &r.kerns[bi]
	sh, c := b.shape, b.coef
	k.t = rows(r.temps[b.node:], len(sh.names))
	k.draws = rows(r.draws[b.comp:], len(sh.compNode))
	k.coef = rows(c.rows, len(sh.heatEdges)+len(sh.compNode)+len(sh.coupleOther)+len(sh.airEdges)+len(sh.exhaustIdx))
	k.air = rows(c.airCoefs, len(sh.airSteps))
	for l, mi := range b.ms {
		k.energy[l], k.inlet[l], k.exhaust[l] = &r.energy[mi], &r.inlet[mi], &r.exhaust[mi]
	}
	k.lanes = 1<<b.lanes - 1
}

// rows is the first element of s resliced to n: it panics unless s
// holds the n elements the kernel walks.
func rows[T any](s []T, n int) *T {
	return unsafe.SliceData(s[:n:n])
}

// stepOne steps block bi through the AVX kernel, as stepBlock would.
func (s *solverCore) stepOne(bi int32, shd *shard) [4]float64 {
	var d [4]float64
	sh := s.blocks[bi].shape
	stepOneAVX(&sh.kern, &s.kerns[bi], s.dt, rows(shd.netQ, len(sh.names)), &d)
	return d
}

// stepTwo steps blocks ai and bi, which share a shape, through the AVX
// kernel, as two stepBlock calls would.
func (s *solverCore) stepTwo(ai, bi int32, shd *shard) (da, db [4]float64) {
	sh := s.blocks[ai].shape
	if s.blocks[bi].shape != sh {
		panic("solver: stepTwo of blocks of two shapes")
	}
	var d [2][4]float64
	n := len(sh.names)
	stepTwoAVX(&sh.kern, &s.kerns[ai], &s.kerns[bi], s.dt, rows(shd.netQ, n), rows(shd.pairQ, n), &d)
	return d[0], d[1]
}

// stepOneAVX steps block a with scratch q and writes its lanes' largest
// changes to d.
//
//go:noescape
func stepOneAVX(k *shapeKern, a *blockKern, dt float64, q *[4]float64, d *[4]float64)

// stepTwoAVX steps blocks a and b with scratch qa and qb and writes
// their lanes' largest changes to d[0] and d[1].
//
//go:noescape
func stepTwoAVX(k *shapeKern, a, b *blockKern, dt float64, qa, qb *[4]float64, d *[2][4]float64)
