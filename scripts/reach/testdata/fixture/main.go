// Command fixture is the census test's module: every kind of function
// the census maps, once linked and once not (see ../../main_test.go).
package main

import (
	"fmt"

	"example.com/fixture/lib"
)

func main() {
	p := &lib.P{}
	p.Live()
	lib.V{}.Live()
	var s fmt.Stringer = &lib.V{}
	fmt.Println(s.String())
	g := &lib.G[int]{}
	g.Live(1)
	lib.G[string]{}.ValLive()
	fmt.Println(lib.Map([]int{1}, func(i int) int { return i + 1 }))
	fmt.Println(lib.WithClosure()(2))
	fmt.Println(lib.Flavor())
	lib.A{}.Close()
	lib.Hook()
	helper()
}

// flavorHook holds a function of another package of the module, and no
// binary reads it.
var flavorHook = lib.Flavor

func helper() { fmt.Println("helper") }

func unusedHelper() { fmt.Println("unused") }
