package main

import (
	"fmt"
	"io"
	"math/rand"

	"lbmib"
	"lbmib/internal/crosscheck"
	"lbmib/internal/flightrec"
	"lbmib/internal/telemetry"
)

// workload is one fixed problem the benchmark runs. The seed only
// jitters sheet origins by fractions of a lattice cell; grid and sheet
// sizes never change with it.
type workload struct {
	name string
	// base returns the problem for a seed, without observers.
	base func(seed int64) lbmib.Config
	// steps is the timed step count of one leg.
	steps int
	// observed attaches every observability consumer to each leg.
	observed bool
}

// warmSteps is the untimed step count each leg runs before its timed
// Run, so one-off first-step costs are not timed.
const warmSteps = 1

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"fluid-only", "sheet", "multi-sheet", "sheet-observed"}

// newWorkload returns the named workload. tiny shrinks every problem to
// a few thousand nodes so tests can run each workload in well under a
// second; the benchmark itself always runs the full sizes.
func newWorkload(name string, tiny bool) (*workload, error) {
	switch name {
	case "fluid-only":
		// A 48³ channel (40 MB of nodes): fluid kernels do nearly all the
		// work, the bounce-back shell runs and the IB layer is idle. 48³
		// rather than 64³ keeps a run's peak memory (live grid, reference
		// state, snapshot copies) about 160 MB on a host shared with others.
		n, steps := 48, 12
		if tiny {
			n, steps = 16, 2
		}
		return &workload{name: name, steps: steps, base: func(int64) lbmib.Config {
			return lbmib.Config{
				NX: n, NY: n, NZ: n, Tau: 0.7,
				BodyForce: [3]float64{2e-5, 0, 0},
				BoundaryZ: lbmib.NoSlip,
			}
		}}, nil
	case "sheet", "sheet-observed":
		// The paper's Fig. 4 problem scaled to a 2-core host: one 52×52
		// sheet upstream in a periodic tunnel; IB is ~11% of the step.
		nx, ny, fibers, steps := 64, 48, 52, 12
		if name == "sheet-observed" {
			// One flight-recorder checkpoint falls inside each timed Run
			// either way; fewer steps keep observed rounds as short as
			// the plain sheet's.
			steps = 10
		}
		if tiny {
			nx, ny, fibers, steps = 16, 16, 8, 2
		}
		return &workload{name: name, steps: steps, observed: name == "sheet-observed",
			base: func(seed int64) lbmib.Config {
				rng := rand.New(rand.NewSource(seed))
				w := float64(fibers) * 0.4
				return lbmib.Config{
					NX: nx, NY: ny, NZ: ny, Tau: 0.7,
					BodyForce: [3]float64{2e-5, 0, 0},
					Sheets: []*lbmib.SheetConfig{sheetAt(fibers, w,
						[3]float64{float64(nx) / 4, float64(ny)/2 - w/2, float64(ny)/2 - w/2}, rng)},
				}
			}}, nil
	case "multi-sheet":
		// Eight 32×32 sheets in a 32³ walled box: IB is about half the
		// step, and the small grid makes per-step sync weigh heavily.
		n, fibers, steps := 32, 32, 24
		if tiny {
			n, fibers, steps = 16, 6, 2
		}
		return &workload{name: name, steps: steps, base: func(seed int64) lbmib.Config {
			rng := rand.New(rand.NewSource(seed))
			w := float64(n) * 3 / 8
			cfg := lbmib.Config{
				NX: n, NY: n, NZ: n, Tau: 0.7,
				BodyForce: [3]float64{2e-5, 0, 0},
				BoundaryZ: lbmib.NoSlip,
			}
			for i := 0; i < 8; i++ {
				x := float64(n) * (float64(i) + 0.25) / 8
				cfg.Sheets = append(cfg.Sheets, sheetAt(fibers, w,
					[3]float64{x, float64(n)/2 - w/2, float64(n)/2 - w/2}, rng))
			}
			return cfg
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sheetAt is a square fibers×fibers sheet of side w whose origin is
// shifted by a seeded fraction of a lattice cell on each axis.
func sheetAt(fibers int, w float64, origin [3]float64, rng *rand.Rand) *lbmib.SheetConfig {
	for d := range origin {
		origin[d] += rng.Float64()
	}
	return &lbmib.SheetConfig{
		NumFibers: fibers, NodesPerFiber: fibers, Width: w, Height: w,
		Origin: origin, Ks: 0.05, Kb: 0.001,
	}
}

// nodes is the fluid-node count of a configuration.
func nodes(cfg lbmib.Config) float64 { return float64(cfg.NX) * float64(cfg.NY) * float64(cfg.NZ) }

// fiberNodes is the total fiber-node count of a configuration.
func fiberNodes(cfg lbmib.Config) int {
	n := 0
	for _, sc := range cfg.Sheets {
		n += sc.NumFibers * sc.NodesPerFiber
	}
	return n
}

// engine is one end-to-end metric's engine setting.
type engine struct {
	name    string // metric suffix: mlups.<name>
	kind    lbmib.SolverKind
	oneT    bool // run at 1 thread instead of the benchmark's thread count
	float32 bool
	check   crosscheck.Engine // whose crosscheck contract the leg owes
}

// engines are run in this order within a round; seq first, so the first
// round's seq leg is the reference every other leg is checked against.
var engines = []engine{
	{name: "seq", kind: lbmib.Sequential, oneT: true, check: crosscheck.EngineSequential},
	{name: "omp", kind: lbmib.OpenMP, check: crosscheck.EngineOMP},
	{name: "cube", kind: lbmib.CubeBased, check: crosscheck.EngineCube},
	{name: "cube.t1", kind: lbmib.CubeBased, oneT: true, check: crosscheck.EngineCube},
	{name: "fused", kind: lbmib.Fused, check: crosscheck.EngineFused},
	{name: "fused-f32", kind: lbmib.Fused, float32: true, check: crosscheck.EngineFusedF32},
	{name: "taskflow", kind: lbmib.TaskScheduled, check: crosscheck.EngineTaskflow},
}

// cubeSize is the cube edge of the cube and taskflow engines.
const cubeSize = 8

// config is the leg configuration of engine e on base at threads.
func (e engine) config(base lbmib.Config, threads int) lbmib.Config {
	cfg := base
	cfg.Solver, cfg.Float32, cfg.CubeSize = e.kind, e.float32, cubeSize
	cfg.Threads = threads
	if e.oneT {
		cfg.Threads = 1
	}
	return cfg
}

// observe attaches every observability consumer to cfg, as a user who
// turns all of them on would: a Telemetry registry, a Watchdog, a flight
// recorder digesting every step and checkpointing in memory, a step log,
// and contention and critical-path attribution where the engine has them.
func observe(cfg lbmib.Config, recDir string) lbmib.Config {
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	cfg.Watchdog = telemetry.NewWatchdog(telemetry.WatchdogConfig{Registry: reg, CubeSize: cubeSize})
	cfg.FlightRec = &flightrec.Config{DigestEvery: 1, SnapshotEvery: 8, TileSize: cubeSize, Dir: recDir}
	cfg.LogWriter = io.Discard
	if cfg.Solver != lbmib.Sequential {
		cfg.Contention, cfg.CritPath = true, true
	}
	return cfg
}
