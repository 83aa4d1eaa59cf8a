package crosscheck

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"

	"lbmib"
	"lbmib/internal/flightrec"
	"lbmib/internal/grid"
	"lbmib/internal/validate"
)

// Engine names one implementation under differential test, addressed
// through lbmib.SolverKind.
type Engine string

// The engines the Runner exercises. The -locked variants run the omp and
// cube engines with Config.LockedSpread — the per-owner-lock spreading
// ablation — so the retained locked path keeps differential coverage
// against the sequential reference after the lock-free default landed.
// The fused pair runs the single-sweep engine in both storage modes:
// fused under the standard float64 contract, fused-f32 with float32
// distribution storage under the Runner's relaxed Tol32 contract.
const (
	EngineSequential Engine = "sequential"
	EngineOMP        Engine = "omp"
	EngineCube       Engine = "cube"
	EngineTaskflow   Engine = "taskflow"
	EngineOMPLocked  Engine = "omp-locked"
	EngineCubeLocked Engine = "cube-locked"
	EngineFused      Engine = "fused"
	EngineFusedF32   Engine = "fused-f32"
)

// Engines returns the engines applicable to the case. The cube-layout
// engines require every grid edge to be divisible by the cube size; for
// indivisible shapes the Runner instead asserts that they reject the
// configuration. The locked-spreading ablations run only when the case
// has an immersed structure — without one the spread path is never taken
// and they would duplicate the base engines exactly.
func Engines(c Case) []Engine {
	es := []Engine{EngineSequential, EngineOMP, EngineFused, EngineFusedF32}
	if len(c.Config.Sheets) > 0 {
		es = append(es, EngineOMPLocked)
	}
	if CubeDivisible(c) {
		es = append(es, EngineCube, EngineTaskflow)
		if len(c.Config.Sheets) > 0 {
			es = append(es, EngineCubeLocked)
		}
	}
	return es
}

// Deterministic reports whether engine e replays the exact same
// floating-point trajectory for this case — the bitwise half of the
// equivalence contract. Sequential executes one thread in program
// order; taskflow spreads fiber forces as a single task and all cube
// tasks write disjoint data, so it is bitwise at any worker count. The
// omp, fused and cube engines order multi-threaded spread sums
// differently from the sequential reference — under locks the order also
// varies run to run; the lock-free reduction is reproducible but still
// grouped per thread — so with an immersed structure and more than one
// thread their low-order bits differ from the reference either way.
//
// Note this is about trajectory reproducibility, which the float32 fused
// mode has too (its rounding is deterministic): it governs round-trip
// comparisons. Whether an engine owes the reference bitwise equality is
// a separate question — see contractFor, which keeps fused-f32 on the
// relaxed Tol32 contract regardless.
func Deterministic(e Engine, c Case) bool {
	switch e {
	case EngineOMP, EngineCube, EngineOMPLocked, EngineCubeLocked, EngineFused, EngineFusedF32:
		return c.Config.Threads == 1 || len(c.Config.Sheets) == 0
	default:
		return true
	}
}

// contractFor resolves the differential contract engine e owes the
// float64 sequential reference for this case: bitwise when the engine
// replays the reference's exact trajectory, Tol when parallel spreading
// reorders accumulation, and Tol32 for the float32 fused mode — whose
// per-step storage rounding keeps it off the bitwise contract even when
// its own trajectory is perfectly reproducible.
func (r *Runner) contractFor(e Engine, c Case) (tol float64, bitwise bool) {
	if e == EngineFusedF32 {
		return r.Tol32, false
	}
	if Deterministic(e, c) {
		return 0, true
	}
	return r.Tol, false
}

// massRelFor returns the mass-conservation tolerance for engine e:
// float32 storage rounds every distribution value once per step, so its
// total mass drifts at the rounding floor instead of being conserved to
// float64 accumulation error.
func massRelFor(e Engine) float64 {
	if e == EngineFusedF32 {
		return massRelTol32
	}
	return massRelTol
}

// EngineReport is the per-engine verdict of one case.
type EngineReport struct {
	Engine   string   `json:"engine"`
	Bitwise  bool     `json:"bitwise"`            // contract applied (vs tolerance)
	MaxAbs   float64  `json:"max_abs_diff"`       // vs the sequential reference
	Failures []string `json:"failures,omitempty"` // empty means the engine passed
	Bundle   string   `json:"bundle,omitempty"`   // post-mortem bundle dir, when recorded
}

// Result is the verdict of one case across all engines and oracles.
type Result struct {
	Seed     int64          `json:"seed"`
	OK       bool           `json:"ok"`
	Engines  []EngineReport `json:"engines"`
	Failures []string       `json:"failures,omitempty"` // reference/metamorphic/round-trip failures
}

// FailureSummary flattens every failure in the result into one string.
func (res Result) FailureSummary() string {
	var b bytes.Buffer
	for _, f := range res.Failures {
		fmt.Fprintf(&b, "case: %s\n", f)
	}
	for _, er := range res.Engines {
		for _, f := range er.Failures {
			fmt.Fprintf(&b, "%s: %s\n", er.Engine, f)
		}
	}
	return b.String()
}

// Runner executes cases across engines and applies the oracles.
type Runner struct {
	// Tol is the tolerance contract for nondeterministic engines
	// (default validate.DefaultTol).
	Tol float64
	// Tol32 is the relaxed contract for the float32 fused engine
	// (default 1e-5): float32 stores ~7 decimal digits, and per-step
	// rounding of every distribution value accumulates a relative error
	// a few orders above the float64 engines' reordering noise.
	Tol32 float64
	// MetaTol bounds the metamorphic symmetry comparisons, which reorder
	// per-node reductions but nothing else (default 1e-11).
	MetaTol float64
	// FlightRecDir, when non-empty, attaches a flight recorder to every
	// facade engine and writes a post-mortem bundle (reason "crosscheck")
	// under <dir>/seed<N>-<engine> for each engine that diverges.
	FlightRecDir string
}

// NewRunner returns a Runner with the default contracts.
func NewRunner() *Runner {
	return &Runner{Tol: validate.DefaultTol, Tol32: 1e-5, MetaTol: 1e-11}
}

// state is a captured engine state: a parity-normalized fluid grid plus
// per-sheet node positions and velocities.
type state struct {
	grid   *grid.Grid
	sheetX [][][3]float64
	sheetV [][][3]float64
}

// simRun drives a facade engine.
type simRun struct{ sim *lbmib.Simulation }

func (e *simRun) run(n int) { e.sim.Run(n) }
func (e *simRun) close()    { e.sim.Close() }
func (e *simRun) state() state {
	st := state{grid: e.sim.FluidSnapshot()}
	for i := 0; i < e.sim.NumSheets(); i++ {
		x, _ := e.sim.SheetPositionsAt(i)
		v, _ := e.sim.SheetVelocitiesAt(i)
		st.sheetX = append(st.sheetX, x)
		st.sheetV = append(st.sheetV, v)
	}
	return st
}

// solverKind maps a facade engine name to its SolverKind.
func solverKind(e Engine) lbmib.SolverKind {
	switch e {
	case EngineOMP, EngineOMPLocked:
		return lbmib.OpenMP
	case EngineCube, EngineCubeLocked:
		return lbmib.CubeBased
	case EngineTaskflow:
		return lbmib.TaskScheduled
	case EngineFused, EngineFusedF32:
		return lbmib.Fused
	default:
		return lbmib.Sequential
	}
}

// lockedSpread reports whether engine e is a locked-spreading ablation.
func lockedSpread(e Engine) bool {
	return e == EngineOMPLocked || e == EngineCubeLocked
}

// newEngine instantiates engine e for the case. Engines carry a
// flight recorder when the Runner has a FlightRecDir, so a divergence
// leaves forensics behind.
func (r *Runner) newEngine(c Case, e Engine) (*simRun, error) {
	cfg := c.Config
	cfg.Solver = solverKind(e)
	cfg.LockedSpread = lockedSpread(e)
	cfg.Float32 = e == EngineFusedF32
	if r.FlightRecDir != "" {
		cfg.FlightRec = &flightrec.Config{
			Dir: filepath.Join(r.FlightRecDir, fmt.Sprintf("seed%d-%s", c.Seed, e)),
		}
	}
	sim, err := lbmib.New(cfg)
	if err != nil {
		return nil, err
	}
	return &simRun{sim}, nil
}

// Run executes the case on every applicable engine and applies the
// differential, invariant, metamorphic and round-trip oracles.
func (r *Runner) Run(c Case) Result {
	res := Result{Seed: c.Seed}
	if c.Steps < 1 {
		c.Steps = 1
	}
	if c.CheckEvery < 1 {
		c.CheckEvery = 1
	}

	// The sequential reference, with invariants checked along the way.
	ref, err := r.newEngine(c, EngineSequential)
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("building sequential reference: %v", err))
		res.OK = false
		return res
	}
	refFinal, refFails := r.drive(ref, c, massRelTol)
	ref.close()
	for _, f := range refFails {
		res.Failures = append(res.Failures, "sequential: "+f)
	}

	// Cube-layout engines must reject indivisible shapes.
	if !CubeDivisible(c) {
		for _, e := range []Engine{EngineCube, EngineTaskflow} {
			if eng, err := r.newEngine(c, e); err == nil {
				eng.close()
				res.Failures = append(res.Failures,
					fmt.Sprintf("%s accepted indivisible grid %d×%d×%d with cube size %d",
						e, c.Config.NX, c.Config.NY, c.Config.NZ, c.Config.CubeSize))
			}
		}
	}

	// Differential pass: every other engine against the reference.
	for _, e := range Engines(c) {
		if e == EngineSequential {
			continue
		}
		tol, bitwise := r.contractFor(e, c)
		er := EngineReport{Engine: string(e), Bitwise: bitwise}
		eng, err := r.newEngine(c, e)
		if err != nil {
			er.Failures = append(er.Failures, fmt.Sprintf("constructor rejected valid config: %v", err))
			res.Engines = append(res.Engines, er)
			continue
		}
		final, fails := r.drive(eng, c, massRelFor(e))
		er.Failures = append(er.Failures, fails...)
		maxAbs, cmpFails := compareStates(refFinal, final, tol)
		er.MaxAbs = maxAbs
		er.Failures = append(er.Failures, cmpFails...)
		// A diverged facade engine dumps its flight-recorder bundle
		// before teardown, so the trajectory that disagreed is kept.
		if len(er.Failures) > 0 {
			if eng.sim.FlightRecorder() != nil {
				if dir, err := eng.sim.WritePostMortem("crosscheck"); err == nil {
					er.Bundle = dir
				}
			}
		}
		eng.close()
		res.Engines = append(res.Engines, er)
	}

	// Metamorphic symmetry oracles (fluid-only cases, sequential engine).
	if len(c.Config.Sheets) == 0 {
		res.Failures = append(res.Failures, r.metamorphic(c, refFinal)...)
	}

	// Mid-run checkpoint/restore must land back on the same trajectory.
	res.Failures = append(res.Failures, r.roundTrips(c)...)

	res.OK = len(res.Failures) == 0
	for _, er := range res.Engines {
		if len(er.Failures) > 0 {
			res.OK = false
		}
	}
	return res
}

// drive advances the engine to c.Steps, applying the invariant oracles
// every c.CheckEvery steps with mass tolerance massRel, and returns the
// final state.
func (r *Runner) drive(e *simRun, c Case, massRel float64) (state, []string) {
	var fails []string
	m0 := e.state().grid.TotalMass()
	for done := 0; done < c.Steps; {
		n := c.CheckEvery
		if done+n > c.Steps {
			n = c.Steps - done
		}
		e.run(n)
		done += n
		if msgs := checkInvariants(c, e.state(), m0, massRel); len(msgs) > 0 {
			for _, m := range msgs {
				fails = append(fails, fmt.Sprintf("step %d: %s", done, m))
			}
			break // the state is unphysical; later checks would cascade
		}
	}
	final := e.state()
	fails = append(fails, checkMomentumSign(c, final)...)
	return final, fails
}

// compareStates diffs two engine states over the physical fields
// (distributions, velocity, density, sheet positions and velocities).
// tol == 0 demands bitwise equality.
func compareStates(a, b state, tol float64) (float64, []string) {
	var fails []string
	d, err := validate.GridsPhysics(a.grid, b.grid)
	if err != nil {
		return math.Inf(1), []string{err.Error()}
	}
	maxAbs := d.MaxAbs
	if !d.Within(tol) {
		fails = append(fails, fmt.Sprintf("fluid state diverges (tol %.1e): %v", tol, d))
	}
	if len(a.sheetX) != len(b.sheetX) {
		return maxAbs, append(fails, fmt.Sprintf("sheet count %d vs %d", len(a.sheetX), len(b.sheetX)))
	}
	for i := range a.sheetX {
		for j := range a.sheetX[i] {
			for dim := 0; dim < 3; dim++ {
				dx := math.Abs(a.sheetX[i][j][dim] - b.sheetX[i][j][dim])
				dv := math.Abs(a.sheetV[i][j][dim] - b.sheetV[i][j][dim])
				if dx > maxAbs {
					maxAbs = dx
				}
				if dv > maxAbs {
					maxAbs = dv
				}
				if dx > tol || dv > tol {
					fails = append(fails, fmt.Sprintf(
						"sheet %d node %d diverges (tol %.1e): |Δx|=%.3e |Δv|=%.3e",
						i, j, tol, dx, dv))
					return maxAbs, fails
				}
			}
		}
	}
	return maxAbs, fails
}

// roundTrips checkpoints a fresh run of the case mid-way, restores it,
// finishes the run and demands the restored trajectory land on the
// uninterrupted one — bitwise for deterministic engines, within Tol
// otherwise. It exercises the sequential engine, the first applicable
// cube-layout engine (or omp when the shape is indivisible), and both
// fused modes — fused-f32 crossing the float32↔float64 checkpoint
// boundary, which must be exact because widening is.
func (r *Runner) roundTrips(c Case) []string {
	engines := []Engine{EngineSequential}
	if CubeDivisible(c) {
		engines = append(engines, EngineCube)
	} else {
		engines = append(engines, EngineOMP)
	}
	engines = append(engines, EngineFused, EngineFusedF32)
	var fails []string
	for _, e := range engines {
		if msg := r.roundTrip(c, e); msg != "" {
			fails = append(fails, msg)
		}
	}
	return fails
}

func (r *Runner) roundTrip(c Case, e Engine) string {
	half := c.Steps / 2
	if half < 1 {
		half = 1
	}
	rest := c.Steps - half
	if rest < 0 {
		rest = 0
	}

	// Uninterrupted trajectory.
	full, err := r.newEngine(c, e)
	if err != nil {
		return fmt.Sprintf("round-trip %s: constructor: %v", e, err)
	}
	full.run(c.Steps)
	want := full.state()
	full.close()

	// Interrupted: run half, checkpoint, restore, run the rest.
	first, err := r.newEngine(c, e)
	if err != nil {
		return fmt.Sprintf("round-trip %s: constructor: %v", e, err)
	}
	first.run(half)
	var buf bytes.Buffer
	if err := first.sim.Checkpoint(&buf); err != nil {
		first.close()
		return fmt.Sprintf("round-trip %s: checkpoint: %v", e, err)
	}
	first.close()

	cfg := c.Config
	cfg.Solver = solverKind(e)
	cfg.LockedSpread = lockedSpread(e)
	cfg.Float32 = e == EngineFusedF32
	restored, err := lbmib.Restore(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		return fmt.Sprintf("round-trip %s: restore: %v", e, err)
	}
	restored.Run(rest)
	if got := restored.StepCount(); got != c.Steps {
		restored.Close()
		return fmt.Sprintf("round-trip %s: step count %d after restore, want %d", e, got, c.Steps)
	}
	rr := &simRun{restored}
	got := rr.state()
	restored.Close()

	tol := 0.0
	if !Deterministic(e, c) {
		tol = r.Tol
	}
	if maxAbs, cmpFails := compareStates(want, got, tol); len(cmpFails) > 0 {
		return fmt.Sprintf("round-trip %s: restored trajectory diverges (max|Δ|=%.3e): %s",
			e, maxAbs, cmpFails[0])
	}
	return ""
}
