package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"lbmib"
	"lbmib/internal/crosscheck"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/validate"
)

// Mass-drift bounds, as the crosscheck invariants set them: float64
// storage conserves mass to accumulation error, float32 storage rounds
// every distribution once per step.
const (
	massRelTol   = 1e-8
	massRelTol32 = 1e-5
	// tol32 is the fused float32 engine's differential contract.
	tol32 = 1e-5
)

// state is what a leg leaves behind: the fluid and every sheet.
type state struct {
	fluid  *grid.Grid
	sheets []*fiber.Sheet
}

// capture copies a simulation's final state. The fluid snapshot of a slab
// engine aliases live storage, which stays valid after Close because
// nothing steps it any more.
func capture(sim *lbmib.Simulation) (state, error) {
	st := state{fluid: sim.FluidSnapshot()}
	for i := 0; i < sim.NumSheets(); i++ {
		x, err := sim.SheetPositionsAt(i)
		if err != nil {
			return st, err
		}
		v, err := sim.SheetVelocitiesAt(i)
		if err != nil {
			return st, err
		}
		sc := sim.Config().Sheets[i]
		st.sheets = append(st.sheets, &fiber.Sheet{
			NumFibers: sc.NumFibers, NodesPerFiber: sc.NodesPerFiber,
			X: x, Vel: v, Force: make([][3]float64, len(x)),
		})
	}
	return st, nil
}

// contract is the agreement a leg owes the seq reference: bitwise when
// the engine replays the reference's exact trajectory, the crosscheck
// tolerance when parallel spreading reorders sums, and the float32
// contract for float32 storage.
type contract struct {
	tol     float64 // 0 demands bitwise equality
	massRel float64
}

func contractFor(e engine, cfg lbmib.Config) contract {
	if e.float32 {
		return contract{tol: tol32, massRel: massRelTol32}
	}
	if crosscheck.Deterministic(e.check, crosscheck.Case{Config: cfg}) {
		return contract{massRel: massRelTol}
	}
	return contract{tol: validate.DefaultTol, massRel: massRelTol}
}

// check returns nil when st is finite, conserves the initial mass m0
// within the contract, and agrees with ref under it.
func check(st, ref state, c contract, m0 float64) error {
	if err := finite(st); err != nil {
		return err
	}
	if drift := math.Abs(st.fluid.TotalMass()-m0) / m0; drift > c.massRel {
		return fmt.Errorf("mass drift %.3e exceeds %.0e", drift, c.massRel)
	}
	// Between steps the force array is engine-defined scratch state, so,
	// as in the crosscheck contract, only the physical fields are compared.
	d, err := validate.GridsPhysics(st.fluid, ref.fluid)
	if err != nil {
		return err
	}
	if !within(d, c.tol) {
		return fmt.Errorf("fluid diverges from seq (tol %.0e): %v", c.tol, d)
	}
	if len(st.sheets) != len(ref.sheets) {
		return fmt.Errorf("%d sheets, seq has %d", len(st.sheets), len(ref.sheets))
	}
	for i := range st.sheets {
		d, err := validate.Sheets(st.sheets[i], ref.sheets[i])
		if err != nil {
			return err
		}
		if !within(d, c.tol) {
			return fmt.Errorf("sheet %d diverges from seq (tol %.0e): %v", i, c.tol, d)
		}
	}
	return nil
}

// within applies a tolerance; tol 0 demands bitwise equality, which a
// zero maximum difference over every compared value is (NaN never
// compares equal, and finite already rejected it).
func within(d validate.Diff, tol float64) bool {
	if tol == 0 {
		return d.MaxAbs == 0
	}
	return d.Within(tol)
}

// finite reports the first non-finite value of the state.
func finite(st state) error {
	g := st.fluid
	cur := g.Cur()
	for i := range g.Nodes {
		n := &g.Nodes[i]
		sum := n.Vel[0] + n.Vel[1] + n.Vel[2] + n.Rho
		for _, v := range n.Buf(cur) {
			sum += v
		}
		// A sum is finite only if every term is: NaN and ±Inf propagate.
		if math.IsNaN(sum) || math.IsInf(sum, 0) {
			return fmt.Errorf("non-finite fluid value at node %d", i)
		}
	}
	for s, sh := range st.sheets {
		for i := range sh.X {
			for d := 0; d < 3; d++ {
				if x, v := sh.X[i][d], sh.Vel[i][d]; math.IsNaN(x+v) || math.IsInf(x+v, 0) {
					return fmt.Errorf("non-finite value at sheet %d node %d", s, i)
				}
			}
		}
	}
	return nil
}

// leg is one engine leg's outcome.
type leg struct {
	engine string
	newSec float64 // time inside lbmib.New
	mlups  float64 // fluid-node updates per second of the timed Run
	final  state
	err    error // why the leg failed; nil when it passed
	// contention is the facade's rollup, when the leg asked for it.
	contention lbmib.ContentionStats
}

// runLeg runs one leg: lbmib.New, warm-up, timed Run, check, Close. A nil
// ref makes the leg its own reference (the first seq leg of a run). A
// panic anywhere in the leg is caught and counted as its failure.
func runLeg(e engine, cfg lbmib.Config, w *workload, ref *state) (l leg) {
	l.engine = e.name
	defer func() {
		if p := recover(); p != nil {
			l.err = fmt.Errorf("panic: %v", p)
		}
	}()
	// Collect the previous leg's garbage now, so it is not charged to
	// this leg's set-up or timed steps.
	runtime.GC()
	t0 := time.Now()
	sim, err := lbmib.New(cfg)
	l.newSec = time.Since(t0).Seconds()
	if err != nil {
		l.err = err
		return l
	}
	defer func() {
		if err := sim.Close(); err != nil && l.err == nil {
			l.err = err
		}
	}()
	m0 := sim.TotalMass()
	sim.Run(warmSteps)
	t1 := time.Now()
	sim.Run(w.steps)
	l.mlups = nodes(cfg) * float64(w.steps) / time.Since(t1).Seconds() / 1e6
	if err := sim.Health(); err != nil {
		l.err = err
		return l
	}
	if got, want := sim.StepCount(), warmSteps+w.steps; got != want {
		l.err = fmt.Errorf("ran %d steps, want %d", got, want)
		return l
	}
	if l.contention, _ = sim.ContentionStats(); cfg.Contention && cfg.Solver != lbmib.Sequential &&
		l.contention.ImbalanceRatio == 0 {
		l.err = errors.New("contention attribution recorded no samples")
		return l
	}
	if l.final, err = capture(sim); err != nil {
		l.err = err
		return l
	}
	if ref == nil {
		ref = &l.final
	}
	l.err = check(l.final, *ref, contractFor(e, cfg), m0)
	return l
}
