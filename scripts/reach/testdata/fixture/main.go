// Command fixture is the census test's module: every kind of function
// the census maps, once linked and once not (see ../../main_test.go).
package main

import (
	"fmt"

	"example.com/fixture/internal/conf"
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
	configure()
}

// configure sets conf's fields in every way the field census counts.
func configure() {
	c := conf.Config{Keyed: 1}
	cs := []*conf.Alias{{Aliased: 2}}
	conf.Options{3, 4}.Apply(&c)
	c.Bumped++
	p := &c.Addr
	*p = 5
	var o conf.Outer
	o.Promoted = 6
	fmt.Println(c.WithDefaults(), cs[0], o)
}

// flavorHook holds a function of another package of the module, and no
// binary reads it.
var flavorHook = lib.Flavor

func helper() { fmt.Println("helper") }

func unusedHelper() { fmt.Println("unused") }
