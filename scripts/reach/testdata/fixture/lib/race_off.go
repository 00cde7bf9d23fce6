//go:build !race

package lib

// Flavor is declared once per build: here without the race tag.
func Flavor() string { return "plain" }
