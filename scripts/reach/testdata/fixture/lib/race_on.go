//go:build race

package lib

// Flavor is declared once per build: here under the race tag, which
// the census's build does not set.
func Flavor() string { return "race" }

// raceOnly is never built without the race tag, so the census must not
// report it.
func raceOnly() string { return "race only" }
