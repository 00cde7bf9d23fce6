// Package conf declares the structs the field census reads: a field
// set in each way it counts, and two set in none (see
// ../../../../main_test.go).
package conf

// Config is a census struct.
type Config struct {
	Keyed    int // a keyed literal
	Aliased  int // a keyed literal of an alias, the & elided
	Assigned int // an assignment in another type's method
	Bumped   int // ++
	Addr     int // &c.Addr
	Promoted int // an assignment through an embedding struct
	Unset    int // only Config's own method sets it
	TestOnly int // only a test file sets it
	hidden   int // unexported: not a census field
}

// Alias names Config another way.
type Alias = Config

// WithDefaults fills in the zero fields; a type's own method does not
// count as setting them.
func (c Config) WithDefaults() Config {
	if c.Unset == 0 {
		c.Unset = 1
	}
	c.hidden = 2
	return c
}

// Options is a census struct that an unkeyed literal sets whole.
type Options struct{ A, B int }

// Apply sets a Config field from another type's method.
func (o Options) Apply(c *Config) { c.Assigned = o.A + o.B }

// Outer embeds Config; its name is not a census name.
type Outer struct{ Config }
