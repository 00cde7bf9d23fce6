// Package lib declares a live and a dead function of every shape the
// census maps from a linked symbol back to its declaration.
package lib

import "fmt"

// P has pointer-receiver methods.
type P struct{ n int }

func (p *P) Live() { p.n++; fmt.Println("P.Live", p.n) }

func (p *P) Dead() { p.n-- }

// V has value-receiver methods; String is reached only through an
// interface holding a *V, by the compiler's pointer wrapper.
type V struct{}

func (V) Live() { fmt.Println("V.Live") }

func (V) Dead() { fmt.Println("V.Dead") }

func (V) String() string { return "V" }

// G is generic; its methods link as shape instantiations.
type G[T any] struct{ last T }

func (g *G[T]) Live(v T) { g.last = v; fmt.Println("G.Live", v) }

func (g *G[T]) Dead(v T) { g.last = v }

func (g G[T]) ValLive() { fmt.Println("G.ValLive", g.last) }

// Map is a live generic function.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Unused is a dead generic function.
func Unused[T any](x T) T { return x }

// WithClosure is live only through the closure it returns.
func WithClosure() func(int) int {
	k := 3
	return func(x int) int { return x * k }
}

// DeadWithClosure and its closure are both dead.
func DeadWithClosure() func() int {
	n := 0
	return func() int { n++; return n }
}

// A and B share a method name; only A's is linked.
type A struct{}

func (A) Close() { fmt.Println("A.Close") }

type B struct{}

func (B) Close() { fmt.Println("B.Close") }

// Package-level vars that hold functions: a var no binary reads is
// reported like a function, whatever names the function it holds.
var (
	// Hook is read by main, so it and hookTarget are live.
	Hook = hookTarget
	// DeadHook, DeadLit, DeadExpr and DeadTyped hold functions no
	// binary reads: a generic function of this package, a literal, a
	// method expression and a nil of a function type.
	DeadHook  = Unused[int]
	DeadLit   = func() int { return 1 }
	DeadExpr  = (*P).Dead
	DeadTyped func()
	// Count holds no function, so the census does not list it.
	Count = 3
)

func hookTarget() { fmt.Println("hook") }
