//go:build !amd64

package solver

// Without the AVX kernel (kernel_amd64.go) every block steps through
// stepBlock; these stand in for its types and hooks, and nothing
// calls its entry points.

const haveAVX = false

type shapeKern struct{}

type blockKern struct{}

func (sh *kernelShape) compileKern() {}

func (r *room) bindKern(bi int32) {}

func (s *solverCore) stepOne(bi int32, shd *shard) [4]float64 {
	panic("solver: no AVX kernel on this architecture")
}

func (s *solverCore) stepTwo(ai, bi int32, shd *shard) (da, db [4]float64) {
	panic("solver: no AVX kernel on this architecture")
}
