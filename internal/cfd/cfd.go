// Package cfd is the reproduction's stand-in for Fluent, the
// commercial simulator of Section 3.2: a two-dimensional steady-state
// finite-difference solver for a server case, modeling conduction
// through solids, upwind advection through the moving air, and
// volumetric heat sources, over many hundreds of mesh cells. Like the
// paper's 2-D Fluent case it computes steady-state temperatures for
// fixed component power consumptions and exposes the heat-transfer
// properties of the material-to-air boundaries, which calibrate the
// (much coarser) Mercury model it is compared against.
package cfd

import (
	"fmt"
	"math"

	"github.com/darklab/mercury/internal/units"
)

// Material selects a cell's conductive properties.
type Material int

// Materials available to case geometry.
const (
	Air Material = iota
	Aluminum
	Steel
	FR4
)

// conductivity in W/(m K).
func (m Material) conductivity() float64 {
	switch m {
	case Air:
		return 0.026
	case Aluminum:
		return 205
	case Steel:
		return 45
	case FR4:
		return 0.3
	default:
		return 0.026
	}
}

func (m Material) String() string {
	switch m {
	case Air:
		return "air"
	case Aluminum:
		return "aluminum"
	case Steel:
		return "steel"
	case FR4:
		return "fr4"
	default:
		return fmt.Sprintf("material(%d)", int(m))
	}
}

// Block is a rectangular solid in the case: a component dissipating
// Power uniformly over its cells. Coordinates are cell indices,
// inclusive of (X0,Y0) and exclusive of (X1,Y1).
type Block struct {
	Name  string
	X0    int
	Y0    int
	X1    int
	Y1    int
	Mat   Material
	Power units.Watts
}

// Case is a 2-D server-chassis geometry. Air flows left to right,
// entering the left edge at InletTemp with InletVelocity.
type Case struct {
	// W, H are the grid dimensions in cells.
	W, H int
	// CellSize is the cell edge length in meters.
	CellSize float64
	// Depth is the out-of-plane depth in meters used to convert the
	// 2-D solution to real watts.
	Depth float64
	// InletTemp is the temperature of incoming air.
	InletTemp units.Celsius
	// InletVelocity is the mean air speed at the inlet, m/s.
	InletVelocity float64
	// Blocks are the solid components.
	Blocks []Block
}

// DefaultCase is the validation geometry: a 0.48 m x 0.20 m chassis at
// 1 cm resolution (960 cells) holding a disk, a CPU with heat sink,
// and a power supply in flow order, mirroring Section 3.2's "2D
// description of a server case, with a CPU, a disk, and a power
// supply".
func DefaultCase() *Case {
	return &Case{
		W:             48,
		H:             20,
		CellSize:      0.01,
		Depth:         0.4,
		InletTemp:     21.6,
		InletVelocity: 0.45,
		Blocks: []Block{
			{Name: "disk", X0: 8, Y0: 12, X1: 14, Y1: 17, Mat: Steel, Power: 9},
			{Name: "cpu", X0: 22, Y0: 4, X1: 27, Y1: 9, Mat: Aluminum, Power: 7},
			{Name: "ps", X0: 36, Y0: 11, X1: 44, Y1: 18, Mat: Steel, Power: 40},
		},
	}
}

// Validate checks geometry invariants.
func (c *Case) Validate() error {
	if c.W < 4 || c.H < 4 {
		return fmt.Errorf("cfd: grid %dx%d too small", c.W, c.H)
	}
	if c.CellSize <= 0 || c.Depth <= 0 {
		return fmt.Errorf("cfd: non-positive cell size or depth")
	}
	if c.InletVelocity <= 0 {
		return fmt.Errorf("cfd: non-positive inlet velocity")
	}
	if !c.InletTemp.Valid() {
		return fmt.Errorf("cfd: invalid inlet temperature")
	}
	seen := map[string]bool{}
	for _, b := range c.Blocks {
		if b.Name == "" {
			return fmt.Errorf("cfd: block with empty name")
		}
		if seen[b.Name] {
			return fmt.Errorf("cfd: duplicate block %q", b.Name)
		}
		seen[b.Name] = true
		if b.X0 < 0 || b.Y0 < 0 || b.X1 > c.W || b.Y1 > c.H || b.X0 >= b.X1 || b.Y0 >= b.Y1 {
			return fmt.Errorf("cfd: block %q outside grid or empty", b.Name)
		}
		if b.X0 == 0 || b.X1 == c.W {
			return fmt.Errorf("cfd: block %q touches the inlet/outlet column", b.Name)
		}
		if b.Power < 0 {
			return fmt.Errorf("cfd: block %q has negative power", b.Name)
		}
		if b.Mat == Air {
			return fmt.Errorf("cfd: block %q is made of air", b.Name)
		}
	}
	return nil
}

// Result is a converged steady-state field.
type Result struct {
	c          *Case
	Temps      []float64 // row-major, len W*H
	Iterations int
	Residual   float64
}

// The iteration's constants.
const (
	// maxIterations before giving up.
	maxIterations = 50000
	// tolerance on the max per-sweep temperature change.
	tolerance = 1e-6
	// airOmega is the SOR relaxation factor of air cells: 1.0, plain
	// Gauss-Seidel, because over-relaxation destabilizes the upwind
	// advection terms.
	airOmega = 1.0
	// solidOmega over-relaxes pure-conduction (solid) cells, which are
	// the stiff part of the system.
	solidOmega = 1.85
)

// Solve computes the steady-state temperature field with the blocks'
// powers overridden by powers (by block name; missing names keep the
// case's value).
func (c *Case) Solve(powers map[string]units.Watts) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	W, H := c.W, c.H
	n := W * H
	idx := func(x, y int) int { return y*W + x }

	mat := make([]Material, n)
	source := make([]float64, n) // W per cell volume
	for _, b := range c.Blocks {
		p := b.Power
		if v, ok := powers[b.Name]; ok {
			p = v
		}
		cells := (b.X1 - b.X0) * (b.Y1 - b.Y0)
		perCell := float64(p) / float64(cells)
		for y := b.Y0; y < b.Y1; y++ {
			for x := b.X0; x < b.X1; x++ {
				mat[idx(x, y)] = b.Mat
				source[idx(x, y)] = perCell
			}
		}
	}

	// Per-column air velocity: continuity requires the same volumetric
	// flux through every column, so air accelerates where solids
	// constrict the channel.
	openRows := make([]int, W)
	for x := 0; x < W; x++ {
		for y := 0; y < H; y++ {
			if mat[idx(x, y)] == Air {
				openRows[x]++
			}
		}
	}
	vel := make([]float64, W)
	for x := 0; x < W; x++ {
		if openRows[x] == 0 {
			return nil, fmt.Errorf("cfd: column %d fully blocked", x)
		}
		vel[x] = c.InletVelocity * float64(H) / float64(openRows[x])
	}

	h := c.CellSize
	area := h * c.Depth // face area, m^2
	rhoCp := units.AirDensity * float64(units.AirSpecificHeat)

	T := make([]float64, n)
	for i := range T {
		T[i] = float64(c.InletTemp)
	}

	// Precompute face conductances G = k_harm * area / h for the four
	// neighbors of every cell.
	cond := func(i int) float64 { return mat[i].conductivity() }
	harm := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return 2 * a * b / (a + b)
	}
	type nb struct {
		j int
		g float64
	}
	neighbors := make([][]nb, n)
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			i := idx(x, y)
			add := func(nx, ny int) {
				if nx < 0 || nx >= W || ny < 0 || ny >= H {
					return // adiabatic walls
				}
				j := idx(nx, ny)
				g := harm(cond(i), cond(j)) * area / h
				neighbors[i] = append(neighbors[i], nb{j: j, g: g})
			}
			add(x-1, y)
			add(x+1, y)
			add(x, y-1)
			add(x, y+1)
		}
	}

	var iter int
	var residual float64
	for iter = 1; iter <= maxIterations; iter++ {
		residual = 0
		for y := 0; y < H; y++ {
			for x := 0; x < W; x++ {
				i := idx(x, y)
				if x == 0 && mat[i] == Air {
					continue // inlet column pinned
				}
				var num, den float64
				for _, e := range neighbors[i] {
					num += e.g * T[e.j]
					den += e.g
				}
				num += source[i]
				if mat[i] == Air && x > 0 {
					// Upwind advection from the left; mass flux through
					// the cell face.
					mdot := rhoCp * vel[x] * area
					up := idx(x-1, y)
					if mat[up] != Air {
						// Flow detours around solids; take the nearest
						// upstream air cell in this column's row band.
						up = nearestAirUp(mat, W, H, x-1, y)
					}
					if up >= 0 {
						num += mdot * T[up]
						den += mdot
					}
				}
				if den == 0 {
					continue
				}
				next := num / den
				// Solids take full SOR; air cells stay at the stable
				// Gauss-Seidel update because of the advection terms.
				omega := airOmega
				if mat[i] != Air {
					omega = solidOmega
				}
				next = T[i] + omega*(next-T[i])
				if math.IsNaN(next) || math.IsInf(next, 0) {
					return nil, fmt.Errorf("cfd: diverged at iteration %d (omega too high?)", iter)
				}
				if d := math.Abs(next - T[i]); d > residual {
					residual = d
				}
				T[i] = next
			}
		}
		if residual < tolerance {
			break
		}
	}
	if residual >= tolerance {
		return nil, fmt.Errorf("cfd: no convergence after %d iterations (residual %g)", maxIterations, residual)
	}
	return &Result{c: c, Temps: T, Iterations: iter, Residual: residual}, nil
}

// nearestAirUp finds the closest air cell in column x scanning outward
// from row y; -1 when the column has none.
func nearestAirUp(mat []Material, W, H, x, y int) int {
	for d := 1; d < H; d++ {
		if y-d >= 0 && mat[(y-d)*W+x] == Air {
			return (y-d)*W + x
		}
		if y+d < H && mat[(y+d)*W+x] == Air {
			return (y+d)*W + x
		}
	}
	return -1
}

// At returns the temperature of cell (x, y).
func (r *Result) At(x, y int) units.Celsius {
	return units.Celsius(r.Temps[y*r.c.W+x])
}

// BlockMean returns a block's mean temperature.
func (r *Result) BlockMean(name string) (units.Celsius, error) {
	b, err := r.c.block(name)
	if err != nil {
		return 0, err
	}
	var sum float64
	cells := 0
	for y := b.Y0; y < b.Y1; y++ {
		for x := b.X0; x < b.X1; x++ {
			sum += r.Temps[y*r.c.W+x]
			cells++
		}
	}
	return units.Celsius(sum / float64(cells)), nil
}

// BlockMax returns a block's hottest cell temperature.
func (r *Result) BlockMax(name string) (units.Celsius, error) {
	b, err := r.c.block(name)
	if err != nil {
		return 0, err
	}
	max := math.Inf(-1)
	for y := b.Y0; y < b.Y1; y++ {
		for x := b.X0; x < b.X1; x++ {
			if t := r.Temps[y*r.c.W+x]; t > max {
				max = t
			}
		}
	}
	return units.Celsius(max), nil
}

// UpstreamAirMean returns the mean air temperature in the column just
// upstream of a block — the local ambient the block sheds heat into.
func (r *Result) UpstreamAirMean(name string) (units.Celsius, error) {
	b, err := r.c.block(name)
	if err != nil {
		return 0, err
	}
	x := b.X0 - 1
	var sum float64
	cells := 0
	for y := 0; y < r.c.H; y++ {
		i := y*r.c.W + x
		sum += r.Temps[i]
		cells++
	}
	if cells == 0 {
		return 0, fmt.Errorf("cfd: no air upstream of %q", name)
	}
	return units.Celsius(sum / float64(cells)), nil
}

// ExtractK computes the effective boundary heat-transfer coefficient
// of a block from a converged solution: the block's power divided by
// its temperature rise over the upstream air. This is the "heat-
// transfer properties of the material-to-air boundaries" the paper
// fed from Fluent into Mercury.
func (r *Result) ExtractK(name string, power units.Watts) (units.WattsPerKelvin, error) {
	mean, err := r.BlockMean(name)
	if err != nil {
		return 0, err
	}
	air, err := r.UpstreamAirMean(name)
	if err != nil {
		return 0, err
	}
	dT := float64(mean - air)
	if dT <= 0 {
		return 0, fmt.Errorf("cfd: block %q not above ambient (dT=%v)", name, dT)
	}
	return units.WattsPerKelvin(float64(power) / dT), nil
}

// MassFlow returns the case's volumetric air flow, for Mercury's fan
// input.
func (c *Case) MassFlow() units.CubicFeetPerMinute {
	m3s := c.InletVelocity * float64(c.H) * c.CellSize * c.Depth
	return units.CubicFeetPerMinute(m3s * 35.3146667 * 60)
}

func (c *Case) block(name string) (*Block, error) {
	for i := range c.Blocks {
		if c.Blocks[i].Name == name {
			return &c.Blocks[i], nil
		}
	}
	return nil, fmt.Errorf("cfd: unknown block %q", name)
}
