// Package lbmib is a parallel library for solving 3D fluid–structure
// interaction problems with the LBM-IB method — an immersed boundary (IB)
// method whose fluid phase is solved by the D3Q19 lattice Boltzmann method
// (LBM), after Nagar, Song, Zhu and Lin, "LBM-IB: A Parallel Library to
// Solve 3D Fluid-Structure Interaction Problems on Manycore Systems"
// (ICPP 2015).
//
// A Simulation couples a 3D fluid grid with a flexible fiber sheet: every
// time step computes the sheet's bending/stretching forces, spreads them
// onto the fluid through a smoothed Dirac delta, advances the fluid with
// the forced lattice Boltzmann equation, and moves the sheet with the
// interpolated fluid velocity (the nine kernels of the paper's
// Algorithm 1).
//
// Five interchangeable engines implement the same physics:
//
//   - Sequential — the reference implementation (paper Section III);
//   - OpenMP — loop-level parallelism with a worker team and an implicit
//     barrier per kernel (Section IV);
//   - CubeBased — the paper's data-centric contribution: the fluid lives
//     in contiguous k×k×k cubes owned by threads of a P×Q×R mesh, with a
//     minimal number of global barriers per step (Section V);
//   - TaskScheduled — the paper's future work, implemented: the cube
//     solver with global barriers replaced by dynamic task scheduling
//     (Section VIII);
//   - Fused — the memory-aware engine: collide, stream, boundary
//     handling, macroscopic update and the buffer swap fused into one
//     pull-streaming sweep so each node is touched once per step, with
//     an optional float32 distribution mode (Config.Float32) halving
//     memory traffic (internal/fused).
//
// The engines produce numerically identical results (to floating-point
// accumulation order); the parallel ones differ only in speed and memory
// behavior. The structure may consist of several sheets (Sheets), walls
// may move (LidVelocity), and runs can be checkpointed and resumed on a
// different engine (Checkpoint/Restore).
package lbmib

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/critpath"
	"lbmib/internal/cubesolver"
	"lbmib/internal/fiber"
	"lbmib/internal/flightrec"
	"lbmib/internal/fused"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
	"lbmib/internal/omp"
	"lbmib/internal/output"
	"lbmib/internal/par"
	"lbmib/internal/perfmon"
	"lbmib/internal/taskflow"
	"lbmib/internal/telemetry"
)

// SolverKind selects the engine implementation.
type SolverKind int

// Available engines.
const (
	// Sequential is the reference Algorithm 1 solver.
	Sequential SolverKind = iota
	// OpenMP is the loop-parallel solver (parallel-for per kernel).
	OpenMP
	// CubeBased is the cube-centric solver (Algorithm 4).
	CubeBased
	// TaskScheduled is the paper's future-work design (Section VIII),
	// implemented here: the cube-centric solver with every global barrier
	// replaced by dynamic task scheduling over a per-cube dependency
	// graph, allowing adjacent time steps to overlap. Results are bitwise
	// identical to Sequential.
	TaskScheduled
	// Fused is the memory-aware engine: the four fluid kernels run as a
	// single pull-streaming sweep over the slab grid (internal/fused).
	// Float64 results are bitwise identical to OpenMP at any thread
	// count; Config.Float32 selects the reduced-precision distribution
	// storage with its relaxed (~1e-5) differential contract.
	Fused
)

// String names the engine.
func (k SolverKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case OpenMP:
		return "omp"
	case CubeBased:
		return "cube"
	case TaskScheduled:
		return "taskflow"
	case Fused:
		return "fused"
	default:
		return fmt.Sprintf("solver(%d)", int(k))
	}
}

// ParseSolverKind converts a command-line name to a SolverKind.
func ParseSolverKind(s string) (SolverKind, error) {
	switch s {
	case "seq", "sequential":
		return Sequential, nil
	case "omp", "openmp":
		return OpenMP, nil
	case "cube", "cubes", "cube-based":
		return CubeBased, nil
	case "taskflow", "tasks", "task-scheduled":
		return TaskScheduled, nil
	case "fused":
		return Fused, nil
	default:
		return 0, fmt.Errorf("lbmib: unknown solver %q (want seq, omp, cube, taskflow or fused)", s)
	}
}

// Boundary selects the condition applied to one axis of the fluid box.
type Boundary int

// Boundary conditions.
const (
	// Periodic wraps the axis.
	Periodic Boundary = iota
	// NoSlip places halfway bounce-back walls at both ends of the axis.
	NoSlip
)

// SheetConfig describes the immersed flexible structure: a rectangular
// sheet of NumFibers fibers with NodesPerFiber nodes each (the paper's
// Figure 4), positioned in the fluid box in lattice units.
type SheetConfig struct {
	NumFibers     int
	NodesPerFiber int
	Width, Height float64    // physical extents (lattice units)
	Origin        [3]float64 // position of fiber 0, node 0
	Ks            float64    // stretching stiffness
	Kb            float64    // bending stiffness
	// FixedRadius > 0 fastens every node within that distance of the
	// sheet center (Figure 1's plate fastened in the middle region).
	FixedRadius float64
}

// Config assembles a simulation.
type Config struct {
	// Fluid grid dimensions (lattice nodes).
	NX, NY, NZ int
	// Tau is the BGK relaxation time (> 0.5). If zero, it is derived from
	// Viscosity; if both are zero, Tau defaults to 0.6.
	Tau float64
	// Viscosity is the kinematic viscosity in lattice units (used when
	// Tau is zero): τ = 3ν + ½.
	Viscosity float64
	// BodyForce is a uniform driving force density (e.g. the pressure
	// gradient surrogate pushing flow through the tunnel).
	BodyForce [3]float64
	// Boundary conditions per axis (default periodic).
	BoundaryX, BoundaryY, BoundaryZ Boundary
	// LidVelocity is the tangential velocity of the z-max wall when
	// BoundaryZ is NoSlip (Ladd's momentum-exchange bounce-back),
	// enabling Couette and lid-driven cavity flows.
	LidVelocity [3]float64
	// Sheet, when non-nil, immerses a flexible structure (single-sheet
	// convenience; appended to Sheets).
	Sheet *SheetConfig
	// Sheets immerses a multi-sheet structure — the paper's "3D flexible
	// structure ... comprised of a number of 2-D sheets".
	Sheets []*SheetConfig

	// Solver selects the engine (default Sequential).
	Solver SolverKind
	// Threads is the worker count for the parallel engines (default 1).
	// Requests exceeding what the decomposition can employ — more threads
	// than cubes (CubeBased) or x-planes (OpenMP) — are clamped at
	// construction; Config() reports the effective count.
	Threads int
	// CubeSize is the cube edge k for the CubeBased engine (default 4);
	// the grid dimensions must be divisible by it.
	CubeSize int
	// LockedSpread restores mutex-protected force spreading (per-owner
	// locks for CubeBased, per-x-plane locks for OpenMP and Fused)
	// instead of the lock-free per-thread accumulation + reduction
	// default — kept for the locked-vs-lock-free ablation and as the
	// crosscheck foil.
	LockedSpread bool
	// Float32 stores the velocity distributions as float32 with the
	// Fused engine (arithmetic stays float64), halving the sweep's
	// memory traffic at the cost of a relaxed (~1e-5) differential
	// contract vs the float64 engines; macroscopic fields, checkpoints
	// and snapshots stay float64. Rejected with any other Solver.
	Float32 bool

	// Telemetry, when non-nil, receives runtime metrics from the
	// simulation: a step counter, an MLUPS gauge, per-step wall-time
	// histograms, and per-kernel (Sequential/OpenMP) or per-phase
	// (CubeBased) latency histograms. Serve it live with
	// telemetry.Serve.
	Telemetry *telemetry.Registry
	// TraceFile, when non-empty, records a Chrome trace-event JSON
	// timeline of the run — one track per worker thread for the
	// CubeBased engine, one kernel track for Sequential/OpenMP — written
	// on Close and loadable in chrome://tracing or Perfetto.
	TraceFile string
	// LogWriter, when non-nil, receives one JSON line per completed step
	// (step, mass, maxVel, kernelMillis, mlups). Per-step sampling costs
	// one grid scan per step.
	LogWriter io.Writer
	// Watchdog, when non-nil, checks physics health after every step;
	// once it flags the run, Run stops early and Health reports the
	// violation. Per-step sampling costs one grid scan per step.
	Watchdog *telemetry.Watchdog
	// FlightRec, when non-nil, keeps an always-on flight recorder: a
	// fixed-size ring of per-step records (kernel/phase timings, per-cube
	// physics digests, contention shares) plus periodic in-memory
	// checkpoints. When the Watchdog latches or a Step panics, a
	// post-mortem bundle is written to FlightRec.Dir (see
	// internal/flightrec); WritePostMortem writes one on demand. A zero
	// flightrec.Config{} takes the documented default cadences. With a
	// Watchdog configured alongside, the watchdog's per-step grid scan is
	// replaced by the recorder's digest pass, not added to it.
	FlightRec *flightrec.Config
	// Contention, when true, attributes waiting time: per-site barrier
	// waits and spreading-lock waits (CubeBased and OpenMP engines),
	// per-thread phase times, and — for the CubeBased engine — a per-cube
	// work heatmap (WriteCubeHeatmap). ContentionStats reports the
	// rollup; with a Telemetry registry the profiles are also published
	// as lbmib_load_imbalance_ratio / lbmib_barrier_wait_seconds /
	// lbmib_lock_wait_seconds gauges. Off by default: the uninstrumented
	// engines take their exact pre-existing code paths.
	Contention bool
	// CritPath, when true, runs the critical-path profiler: per-step
	// last-arriver attribution at every barrier site, a per-thread phase
	// timeline, and wait-cause classification (persistent straggler, data
	// imbalance, barrier-topology overhead). CritPathReport returns the
	// rollup with a perfsim what-if table; with a Telemetry registry the
	// per-phase critical path is published as
	// lbmib_critical_path_seconds{engine,phase} and last-arriver counts as
	// lbmib_last_arriver_total{engine,site,tid}; with a TraceFile, barrier
	// releases become Chrome-trace flow events; with a flight recorder, a
	// critpath.json section joins post-mortem bundles. Supported by the
	// OpenMP, CubeBased, TaskScheduled and Fused engines; off by default
	// (the uninstrumented engines take their exact pre-existing paths).
	CritPath bool
}

// engine is what each solver implementation provides to the facade.
type engine interface {
	step()
	run(n int)
	stepCount() int
	snapshot() *grid.Grid
	digest(d *grid.DigestGrid) error // per-tile physics digest of the live state
	load(g *grid.Grid) error
	velocityAt(x, y, z int) [3]float64
	densityAt(x, y, z int) float64
	observe(si *stepInstr) // attach timing callbacks where the engine supports them
	close()
}

// stepInstr fans the engines' timing callbacks out to the configured
// telemetry sinks. It implements core.Observer (sequential and
// OpenMP-style engines) and cubesolver.PhaseObserver (cube engine); only
// the histograms matching the selected engine are registered.
type stepInstr struct {
	tracer     *telemetry.Tracer
	rec        *flightrec.Recorder
	kernelHist [core.NumKernels + 1]*telemetry.Histogram
	phaseHist  [cubesolver.NumPhases + 1]*telemetry.Histogram

	// Contention attribution (Config.Contention); engines attach what
	// they support in their observe adapters.
	threads    int
	phaseProf  *perfmon.PhaseProfile      // per-thread phase times (CubeBased/TaskScheduled)
	regionProf *perfmon.RegionProfile     // OmpP-style per-region accounting (OpenMP)
	cont       *perfmon.ContentionProfile // barrier + spreading-lock waits
	heatmap    *perfmon.CubeHeatmap       // per-cube work samples (CubeBased)

	// Critical-path attribution (Config.CritPath); receives phase/region
	// completions through the fan-outs below and barrier arrivals directly
	// (engines attach it as their BarrierArrivalObserver).
	crit *critpath.Profiler
}

// KernelDone implements core.Observer.
func (si *stepInstr) KernelDone(step int, k core.Kernel, d time.Duration) {
	if si.tracer != nil {
		si.tracer.KernelDone(step, k, d)
	}
	if si.rec != nil {
		si.rec.KernelObserved(step, k, d)
	}
	if k >= 1 && k <= core.NumKernels && si.kernelHist[k] != nil {
		si.kernelHist[k].Observe(d.Seconds())
	}
}

// PhaseDone implements cubesolver.PhaseObserver.
func (si *stepInstr) PhaseDone(step, tid int, p cubesolver.Phase, d time.Duration) {
	if si.tracer != nil {
		si.tracer.PhaseDone(step, tid, p, d)
	}
	if si.rec != nil {
		si.rec.PhaseObserved(step, tid, p, d)
	}
	if p >= 1 && p <= cubesolver.NumPhases && si.phaseHist[p] != nil {
		si.phaseHist[p].Observe(d.Seconds())
	}
	if si.phaseProf != nil {
		si.phaseProf.PhaseDone(step, tid, p, d)
	}
	if si.crit != nil {
		si.crit.PhaseDone(step, tid, p, d)
	}
}

// RegionDone implements omp.RegionObserver, fanning each parallel
// region's per-thread busy times out to the OmpP-style profile and the
// critical-path profiler.
func (si *stepInstr) RegionDone(step int, k core.Kernel, busy []time.Duration) {
	if si.regionProf != nil {
		si.regionProf.RegionDone(step, k, busy)
	}
	if si.crit != nil {
		si.crit.RegionDone(step, k, busy)
	}
}

// Simulation is a configured LBM-IB problem with a selected engine.
type Simulation struct {
	cfg        Config
	eng        engine
	sheets     []*fiber.Sheet
	stepOffset int // steps completed before a Restore

	// Telemetry plumbing (all optional; nil when not configured).
	tracer    *telemetry.Tracer
	traceFile *os.File
	logger    *telemetry.StepLogger
	watchdog  *telemetry.Watchdog
	rec       *flightrec.Recorder
	mSteps    *telemetry.Counter
	mMLUPS    *telemetry.Gauge
	mStepSec  *telemetry.Histogram

	// Contention attribution (Config.Contention; nil when disabled).
	instr   *stepInstr
	wallSec float64 // accumulated measured wall-clock seconds
}

func buildSheet(sc *SheetConfig) (*fiber.Sheet, error) {
	if sc == nil {
		return nil, nil
	}
	if sc.NumFibers < 1 || sc.NodesPerFiber < 1 {
		return nil, fmt.Errorf("lbmib: sheet must have positive fiber counts, got %d×%d",
			sc.NumFibers, sc.NodesPerFiber)
	}
	s := fiber.NewSheet(fiber.Params{
		NumFibers:     sc.NumFibers,
		NodesPerFiber: sc.NodesPerFiber,
		Width:         sc.Width,
		Height:        sc.Height,
		Origin:        sc.Origin,
		Ks:            sc.Ks,
		Kb:            sc.Kb,
	})
	if sc.FixedRadius > 0 {
		s.FixRegion(sc.FixedRadius)
	}
	return s, nil
}

func buildSheets(cfg Config) ([]*fiber.Sheet, error) {
	var out []*fiber.Sheet
	for i, sc := range append(append([]*SheetConfig(nil), cfg.Sheets...), cfg.Sheet) {
		s, err := buildSheet(sc)
		if err != nil {
			return nil, fmt.Errorf("sheet %d: %w", i, err)
		}
		if s != nil {
			out = append(out, s)
		}
	}
	return out, nil
}

func toBC(b Boundary) core.BC {
	if b == NoSlip {
		return core.BounceBack
	}
	return core.Periodic
}

// New builds a Simulation. It validates the configuration and allocates
// the fluid grid at rest (ρ = 1, u = 0) with the sheet in its initial
// flat configuration.
func New(cfg Config) (*Simulation, error) {
	if cfg.NX < 1 || cfg.NY < 1 || cfg.NZ < 1 {
		return nil, fmt.Errorf("lbmib: invalid grid %d×%d×%d", cfg.NX, cfg.NY, cfg.NZ)
	}
	if cfg.Tau == 0 && cfg.Viscosity > 0 {
		cfg.Tau = lattice.TauFromViscosity(cfg.Viscosity)
	}
	if cfg.Tau == 0 {
		cfg.Tau = 0.6
	}
	if err := core.ValidateTau(cfg.Tau); err != nil {
		return nil, fmt.Errorf("lbmib: %w", err)
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Float32 && cfg.Solver != Fused {
		return nil, fmt.Errorf("lbmib: Float32 requires the Fused engine, not %v", cfg.Solver)
	}
	sheets, err := buildSheets(cfg)
	if err != nil {
		return nil, err
	}
	sim := &Simulation{cfg: cfg, sheets: sheets}

	coreCfg := core.Config{
		NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
		Tau:         cfg.Tau,
		BodyForce:   cfg.BodyForce,
		BCX:         toBC(cfg.BoundaryX),
		BCY:         toBC(cfg.BoundaryY),
		BCZ:         toBC(cfg.BoundaryZ),
		LidVelocity: cfg.LidVelocity,
		Sheets:      sheets,
	}
	switch cfg.Solver {
	case Sequential:
		cs, err := core.NewSolver(coreCfg)
		if err != nil {
			return nil, err
		}
		sim.eng = &seqEngine{cs}
	case OpenMP:
		os, err := omp.NewSolver(omp.Config{Config: coreCfg, Threads: cfg.Threads,
			LockedSpread: cfg.LockedSpread})
		if err != nil {
			return nil, err
		}
		// The solver may clamp the requested thread count; the telemetry
		// profiles below must be sized to the team that actually runs.
		sim.cfg.Threads = os.Threads
		sim.eng = &ompEngine{os}
	case CubeBased:
		k := cfg.CubeSize
		if k == 0 {
			k = 4
		}
		cs, err := cubesolver.NewSolver(cubesolver.Config{
			NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
			CubeSize: k, Threads: cfg.Threads, Tau: cfg.Tau,
			BodyForce: cfg.BodyForce,
			BCX:       toBC(cfg.BoundaryX), BCY: toBC(cfg.BoundaryY), BCZ: toBC(cfg.BoundaryZ),
			LidVelocity:  cfg.LidVelocity,
			Sheets:       sheets,
			Dist:         par.Block,
			LockedSpread: cfg.LockedSpread,
		})
		if err != nil {
			return nil, err
		}
		// The solver may clamp the requested thread count; the telemetry
		// profiles below must be sized to the team that actually runs.
		sim.cfg.Threads = cs.Threads()
		sim.eng = &cubeEngine{cs}
	case TaskScheduled:
		k := cfg.CubeSize
		if k == 0 {
			k = 4
		}
		ts, err := taskflow.NewSolver(taskflow.Config{
			NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
			CubeSize: k, Workers: cfg.Threads, Tau: cfg.Tau,
			BodyForce: cfg.BodyForce,
			BCX:       toBC(cfg.BoundaryX), BCY: toBC(cfg.BoundaryY), BCZ: toBC(cfg.BoundaryZ),
			LidVelocity: cfg.LidVelocity,
			Sheets:      sheets,
		})
		if err != nil {
			return nil, err
		}
		sim.eng = &taskflowEngine{ts}
	case Fused:
		fs, err := fused.NewSolver(fused.Config{Config: coreCfg, Threads: cfg.Threads,
			Float32: cfg.Float32, LockedSpread: cfg.LockedSpread})
		if err != nil {
			return nil, err
		}
		// The solver may clamp the requested thread count; the telemetry
		// profiles below must be sized to the team that actually runs.
		sim.cfg.Threads = fs.Threads
		sim.eng = &fusedEngine{fs}
	default:
		return nil, fmt.Errorf("lbmib: unknown solver kind %d", cfg.Solver)
	}
	if err := sim.initTelemetry(); err != nil {
		sim.eng.close()
		return nil, err
	}
	return sim, nil
}

// initTelemetry sets up the optional observability sinks and attaches
// the engine's timing callbacks. Without any telemetry configuration the
// simulation runs exactly as before (no observer, no per-step scans).
func (s *Simulation) initTelemetry() error {
	cfg := s.cfg
	s.watchdog = cfg.Watchdog
	if cfg.LogWriter != nil {
		s.logger = telemetry.NewStepLogger(cfg.LogWriter)
	}
	if cfg.TraceFile != "" {
		f, err := os.Create(cfg.TraceFile)
		if err != nil {
			return fmt.Errorf("lbmib: trace file: %w", err)
		}
		s.traceFile = f
		s.tracer = telemetry.NewTracer()
	}
	if r := cfg.Telemetry; r != nil {
		telemetry.RegisterBuildInfo(r)
		s.mSteps = r.Counter("lbmib_steps_total", "Completed time steps.")
		s.mMLUPS = r.Gauge("lbmib_mlups", "Million lattice-node updates per second over the last Run batch.")
		s.mStepSec = r.Histogram("lbmib_step_seconds", "Wall-clock time per time step.",
			telemetry.ExpBuckets(1e-4, 2, 18))
	}
	if fc := cfg.FlightRec; fc != nil {
		c := *fc
		if c.TileSize == 0 {
			switch cfg.Solver {
			case CubeBased, TaskScheduled:
				// Make digest tiles coincide with the engine's cubes so
				// localization names real cubes.
				if c.TileSize = cfg.CubeSize; c.TileSize == 0 {
					c.TileSize = 4
				}
			}
		}
		s.rec = flightrec.New(c)
		s.rec.SetRunSpec(s.runSpec())
	}
	if s.tracer == nil && cfg.Telemetry == nil && !cfg.Contention && !cfg.CritPath && s.rec == nil {
		return nil
	}
	si := &stepInstr{tracer: s.tracer, rec: s.rec, threads: cfg.Threads}
	if r := cfg.Telemetry; r != nil {
		buckets := telemetry.ExpBuckets(1e-5, 2, 18)
		switch cfg.Solver {
		case Sequential, OpenMP:
			for k := core.Kernel(1); k <= core.NumKernels; k++ {
				si.kernelHist[k] = r.Histogram("lbmib_kernel_seconds",
					"Wall-clock time per kernel execution (Algorithm 1).",
					buckets, telemetry.L("kernel", k.String()))
			}
		case CubeBased, TaskScheduled, Fused:
			for p := cubesolver.Phase(1); p <= cubesolver.NumPhases; p++ {
				si.phaseHist[p] = r.Histogram("lbmib_phase_seconds",
					"Wall-clock time per worker per loop nest (Algorithm 4).",
					buckets, telemetry.L("phase", p.String()))
			}
		}
	}
	if cfg.Contention {
		switch cfg.Solver {
		case OpenMP:
			si.regionProf = perfmon.NewRegionProfile(cfg.Threads)
			si.cont = perfmon.NewContentionProfile(cfg.Threads, cfg.NX) // lock owner = x-plane
		case CubeBased:
			si.phaseProf = perfmon.NewPhaseProfile(cfg.Threads)
			si.cont = perfmon.NewContentionProfile(cfg.Threads, cfg.Threads) // lock owner = thread
		case Fused:
			// The fused sweep has two instrumentable barrier sites (the
			// mid-sweep wavefront join and the end-of-sweep join), so it
			// gets the same wait attribution as the cube engine.
			si.phaseProf = perfmon.NewPhaseProfile(cfg.Threads)
			si.cont = perfmon.NewContentionProfile(cfg.Threads, cfg.Threads) // lock owner = thread
		case TaskScheduled:
			// No timed barrier sites; only per-thread phase times apply.
			si.phaseProf = perfmon.NewPhaseProfile(cfg.Threads)
		}
	}
	if cfg.CritPath {
		switch cfg.Solver {
		case OpenMP, CubeBased, TaskScheduled, Fused:
			eng := cfg.Solver.String()
			if cfg.Solver == Fused && cfg.Float32 {
				eng = "fused-f32"
			}
			si.crit = critpath.New(critpath.Config{
				Engine:  eng,
				Threads: cfg.Threads,
				Tracer:  s.tracer,
			})
		}
	}
	if s.rec != nil && si.crit != nil {
		crit := si.crit
		nodes := float64(cfg.NX) * float64(cfg.NY) * float64(cfg.NZ)
		s.rec.SetAux(flightrec.CritPathFile, func() ([]byte, error) {
			r := crit.Report()
			critpath.AddWhatIf(&r, nodes)
			return json.MarshalIndent(r, "", "  ")
		})
	}
	s.instr = si
	s.eng.observe(si)
	return nil
}

// instrumented reports whether any telemetry sink needs Step/Run
// bookkeeping.
func (s *Simulation) instrumented() bool {
	return s.mSteps != nil || s.tracer != nil || s.logger != nil || s.watchdog != nil ||
		s.rec != nil || s.cfg.Contention || s.cfg.CritPath
}

// runSpec describes this run for post-mortem bundles: enough to rebuild
// an equivalent Config and Restore the bundled checkpoint into it.
func (s *Simulation) runSpec() flightrec.RunSpec {
	cfg := s.cfg
	bname := func(b Boundary) string {
		if b == NoSlip {
			return "noslip"
		}
		return "periodic"
	}
	spec := flightrec.RunSpec{
		NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
		Tau:       cfg.Tau,
		BodyForce: cfg.BodyForce,
		BoundaryX: bname(cfg.BoundaryX), BoundaryY: bname(cfg.BoundaryY), BoundaryZ: bname(cfg.BoundaryZ),
		LidVelocity:  cfg.LidVelocity,
		Solver:       cfg.Solver.String(),
		Threads:      cfg.Threads,
		CubeSize:     cfg.CubeSize,
		LockedSpread: cfg.LockedSpread,
		Float32:      cfg.Float32,
	}
	for _, sc := range append(append([]*SheetConfig(nil), cfg.Sheets...), cfg.Sheet) {
		if sc == nil {
			continue
		}
		spec.Sheets = append(spec.Sheets, flightrec.SheetSpec{
			NumFibers: sc.NumFibers, NodesPerFiber: sc.NodesPerFiber,
			Width: sc.Width, Height: sc.Height, Origin: sc.Origin,
			Ks: sc.Ks, Kb: sc.Kb, FixedRadius: sc.FixedRadius,
		})
	}
	return spec
}

// ConfigFromRunSpec rebuilds a Config from a bundle's RunSpec, the
// inverse of the description embedded by the flight recorder. The
// returned Config has no telemetry attached; callers add their own.
func ConfigFromRunSpec(spec flightrec.RunSpec) (Config, error) {
	solver, err := ParseSolverKind(spec.Solver)
	if err != nil {
		return Config{}, err
	}
	bparse := func(name string) (Boundary, error) {
		switch name {
		case "", "periodic":
			return Periodic, nil
		case "noslip":
			return NoSlip, nil
		default:
			return 0, fmt.Errorf("lbmib: unknown boundary %q", name)
		}
	}
	cfg := Config{
		NX: spec.NX, NY: spec.NY, NZ: spec.NZ,
		Tau:          spec.Tau,
		BodyForce:    spec.BodyForce,
		LidVelocity:  spec.LidVelocity,
		Solver:       solver,
		Threads:      spec.Threads,
		CubeSize:     spec.CubeSize,
		LockedSpread: spec.LockedSpread,
		Float32:      spec.Float32,
	}
	if cfg.BoundaryX, err = bparse(spec.BoundaryX); err != nil {
		return Config{}, err
	}
	if cfg.BoundaryY, err = bparse(spec.BoundaryY); err != nil {
		return Config{}, err
	}
	if cfg.BoundaryZ, err = bparse(spec.BoundaryZ); err != nil {
		return Config{}, err
	}
	for _, sh := range spec.Sheets {
		cfg.Sheets = append(cfg.Sheets, &SheetConfig{
			NumFibers: sh.NumFibers, NodesPerFiber: sh.NodesPerFiber,
			Width: sh.Width, Height: sh.Height, Origin: sh.Origin,
			Ks: sh.Ks, Kb: sh.Kb, FixedRadius: sh.FixedRadius,
		})
	}
	return cfg, nil
}

// Step advances one time step (the nine kernels of Algorithm 1).
func (s *Simulation) Step() { s.runSteps(1) }

// Run advances n time steps. With a Watchdog configured, Run stops at
// the first step that violates a physics invariant; Health reports it.
func (s *Simulation) Run(n int) { s.runSteps(n) }

// runSteps drives the engine with whatever bookkeeping the configured
// telemetry requires: nothing extra without telemetry, batch timing with
// a Registry alone, and a per-step pass when a LogWriter, Watchdog or
// flight recorder needs per-step physics. With a recorder configured, a
// panicking step still leaves a post-mortem bundle behind.
func (s *Simulation) runSteps(n int) {
	if n <= 0 {
		return
	}
	if !s.instrumented() {
		s.eng.run(n)
		return
	}
	if s.rec != nil {
		defer func() {
			if p := recover(); p != nil {
				var herr *telemetry.HealthError
				if s.watchdog != nil {
					errors.As(s.watchdog.Err(), &herr)
				}
				s.rec.WriteBundle("panic", herr) //nolint:errcheck // already panicking
				panic(p)
			}
		}()
	}
	nodes := float64(s.cfg.NX) * float64(s.cfg.NY) * float64(s.cfg.NZ)
	if s.logger == nil && s.watchdog == nil && s.rec == nil {
		t0 := time.Now()
		s.eng.run(n)
		s.recordBatch(n, nodes, time.Since(t0))
		return
	}
	for i := 0; i < n; i++ {
		if s.watchdog != nil && !s.watchdog.Healthy() {
			return // the run is flagged; don't advance a diverged state
		}
		t0 := time.Now()
		s.eng.step()
		elapsed := time.Since(t0)
		s.recordBatch(1, nodes, elapsed)

		step := s.StepCount()
		mlups := 0.0
		if elapsed > 0 {
			mlups = nodes / elapsed.Seconds() / 1e6
		}

		// Physics sampling: with a recorder, one digest pass feeds the
		// watchdog, the steplog and the ring together (the cube engines
		// digest their layout in place, skipping the slab materialization
		// a snapshot would cost); without one, the original snapshot path
		// runs unchanged.
		var herr *telemetry.HealthError
		var mass, maxVel float64
		if s.rec != nil {
			needDigest := s.watchdog != nil || s.logger != nil || s.rec.WantDigest(step)
			var dig *grid.DigestGrid
			if needDigest {
				var err error
				if dig, err = s.rec.Scratch(s.cfg.NX, s.cfg.NY, s.cfg.NZ); err == nil {
					err = s.eng.digest(dig)
				}
				if err != nil {
					dig = nil // digest failure must not kill the run
				}
			}
			if dig != nil {
				mass, maxVel = dig.Mass, dig.MaxVel
				if s.watchdog != nil {
					if err := s.watchdog.CheckDigest(step, dig); err != nil {
						errors.As(err, &herr)
					}
				}
				if s.rec.WantDigest(step) {
					s.rec.RecordDigest(step, dig)
				}
			}
			bs, ls := 0.0, 0.0
			if st, ok := s.ContentionStats(); ok {
				bs, ls = st.BarrierWaitShare, st.LockWaitShare
			}
			s.rec.RecordStep(step, elapsed, mlups, bs, ls)
			healthy := s.watchdog == nil || s.watchdog.Healthy()
			if healthy && s.rec.WantSnapshot(step) {
				s.rec.TakeSnapshot(step, s.Checkpoint) //nolint:errcheck // best-effort; last good snapshot is kept
			}
			if herr != nil {
				s.rec.WriteBundle("watchdog", herr) //nolint:errcheck // latched error is still exposed via Health
			}
		} else {
			g := s.eng.snapshot()
			if s.watchdog != nil {
				if err := s.watchdog.Check(step, g); err != nil {
					errors.As(err, &herr)
				}
			}
			if s.logger != nil {
				mass, maxVel = g.TotalMass(), g.MaxVelocity()
			}
		}

		if s.logger != nil {
			rec := telemetry.StepRecord{
				Step:         step,
				Mass:         mass,
				MaxVel:       maxVel,
				KernelMillis: float64(elapsed.Microseconds()) / 1e3,
				MLUPS:        mlups,
				Unhealthy:    telemetry.NewUnhealthyRecord(herr),
			}
			if st, ok := s.ContentionStats(); ok {
				rec.Imbalance = st.ImbalanceRatio
				rec.BarrierWaitShare = st.BarrierWaitShare
				rec.LockWaitShare = st.LockWaitShare
			}
			// The profiler is keyed by the engine's internal step index
			// (what the observer callbacks carry), which lags StepCount by
			// one and excludes any restore offset.
			if si := s.instr; si != nil && si.crit != nil {
				if cp, ok := si.crit.StepRecord(s.eng.stepCount() - 1); ok {
					rec.CritPath = &cp
				}
			}
			s.logger.Log(rec) //nolint:errcheck // logging is best-effort
		}
	}
}

// FlightRecorder returns the configured flight recorder, or nil.
func (s *Simulation) FlightRecorder() *flightrec.Recorder { return s.rec }

// WritePostMortem writes a post-mortem bundle on demand (reason
// "manual" for operator-initiated dumps, "crosscheck" when a
// differential harness caught a divergence). It requires Config.FlightRec
// with a Dir, and embeds the watchdog's latched error if any.
func (s *Simulation) WritePostMortem(reason string) (string, error) {
	if s.rec == nil {
		return "", fmt.Errorf("lbmib: post-mortem requires Config.FlightRec")
	}
	var herr *telemetry.HealthError
	if s.watchdog != nil {
		errors.As(s.watchdog.Err(), &herr)
	}
	return s.rec.WriteBundle(reason, herr)
}

// recordBatch updates the registry metrics for n steps that took
// elapsed.
func (s *Simulation) recordBatch(n int, nodes float64, elapsed time.Duration) {
	s.wallSec += elapsed.Seconds()
	if s.mSteps != nil {
		s.mSteps.Add(int64(n))
		if elapsed > 0 {
			s.mMLUPS.Set(nodes * float64(n) / elapsed.Seconds() / 1e6)
		}
		perStep := (elapsed / time.Duration(n)).Seconds()
		for i := 0; i < n; i++ {
			s.mStepSec.Observe(perStep)
		}
	}
	s.publishContention()
	if si := s.instr; si != nil && si.crit != nil {
		si.crit.Publish(s.cfg.Telemetry) // nil registry is a no-op
	}
}

// publishContention rolls the contention profiles up into the registry:
// the Table II imbalance ratio as lbmib_load_imbalance_ratio{engine,
// phase} and the wait attribution as lbmib_barrier_wait_seconds /
// lbmib_lock_wait_seconds.
func (s *Simulation) publishContention() {
	r := s.cfg.Telemetry
	if r == nil || !s.cfg.Contention {
		return
	}
	const help = "max/mean per-thread phase time (Table II load-imbalance metric)"
	eng := telemetry.L("engine", s.cfg.Solver.String())
	si := s.instr
	switch {
	case si.phaseProf != nil:
		r.Gauge("lbmib_load_imbalance_ratio", help, eng, telemetry.L("phase", "total")).
			Set(si.phaseProf.ImbalanceRatio())
		for p := cubesolver.Phase(1); p <= cubesolver.NumPhases; p++ {
			if ratio := si.phaseProf.PhaseImbalanceRatio(p); ratio > 0 {
				r.Gauge("lbmib_load_imbalance_ratio", help, eng, telemetry.L("phase", p.String())).Set(ratio)
			}
		}
	case si.regionProf != nil:
		r.Gauge("lbmib_load_imbalance_ratio", help, eng, telemetry.L("phase", "total")).
			Set(si.regionProf.ImbalanceRatio())
		for k := core.Kernel(1); k <= core.NumKernels; k++ {
			if ratio := si.regionProf.KernelImbalanceRatio(k); ratio > 0 {
				r.Gauge("lbmib_load_imbalance_ratio", help, eng, telemetry.L("phase", k.String())).Set(ratio)
			}
		}
	}
	if si.cont != nil {
		si.cont.Publish(r, s.cfg.Solver.String())
	}
}

// ContentionStats is the rollup of the Config.Contention profiles.
type ContentionStats struct {
	// ImbalanceRatio is max/mean of per-thread busy time (Table II);
	// 1 = perfectly balanced, 0 = no samples yet.
	ImbalanceRatio float64
	// BarrierWaitShare is the fraction of total thread-time spent waiting
	// at barriers (CubeBased) or at the parallel regions' implicit
	// barriers (OpenMP).
	BarrierWaitShare float64
	// LockWaitShare is the fraction of total thread-time blocked on
	// spreading locks. Identically zero on the default lock-free spreading
	// path; nonzero only with Config.LockedSpread.
	LockWaitShare     float64
	ContendedAcquires int64
	TotalAcquires     int64
	// Reacquires counts within-stencil re-acquisitions (the A→B→A
	// hand-over-hand return leg), kept out of TotalAcquires so contended
	// rates divide by stencil-level attempts.
	Reacquires          int64
	ContendedReacquires int64
}

// ContentionStats reports the accumulated contention rollup; ok is false
// unless Config.Contention was set. Shares are measured against the
// wall-clock time of instrumented Step/Run calls.
func (s *Simulation) ContentionStats() (ContentionStats, bool) {
	if !s.cfg.Contention || s.instr == nil {
		return ContentionStats{}, false
	}
	si := s.instr
	var st ContentionStats
	threadSec := float64(s.cfg.Threads) * s.wallSec
	switch {
	case si.phaseProf != nil:
		st.ImbalanceRatio = si.phaseProf.ImbalanceRatio()
	case si.regionProf != nil:
		st.ImbalanceRatio = si.regionProf.ImbalanceRatio()
	}
	if si.regionProf != nil {
		st.BarrierWaitShare = si.regionProf.BarrierWaitShare()
	} else if si.cont != nil && threadSec > 0 {
		st.BarrierWaitShare = si.cont.BarrierWaitTotal().Seconds() / threadSec
	}
	if si.cont != nil {
		if threadSec > 0 {
			st.LockWaitShare = si.cont.LockWaitTotal().Seconds() / threadSec
		}
		st.ContendedAcquires = si.cont.ContendedAcquires()
		st.TotalAcquires = si.cont.TotalAcquires()
		st.Reacquires = si.cont.Reacquires()
		st.ContendedReacquires = si.cont.ContendedReacquires()
	}
	return st, true
}

// WriteCubeHeatmap writes the per-cube work heatmap accumulated so far
// as schema-versioned JSON. It requires Config.Contention with the
// CubeBased engine.
func (s *Simulation) WriteCubeHeatmap(w io.Writer) error {
	if s.instr == nil || s.instr.heatmap == nil {
		return fmt.Errorf("lbmib: heatmap requires Config.Contention with the CubeBased engine")
	}
	return s.instr.heatmap.WriteJSON(w)
}

// CritPathReport returns the critical-path profiler's accumulated
// report — per-site last-arriver attribution with wait-cause classes,
// per-phase critical-path seconds, recent last-arriver chains, and the
// perfsim what-if table of predicted MLUPS gains. ok is false unless
// Config.CritPath was set on a supported engine.
func (s *Simulation) CritPathReport() (critpath.Report, bool) {
	if s.instr == nil || s.instr.crit == nil {
		return critpath.Report{}, false
	}
	r := s.instr.crit.Report()
	critpath.AddWhatIf(&r, float64(s.cfg.NX)*float64(s.cfg.NY)*float64(s.cfg.NZ))
	return r, true
}

// Health returns nil while the configured Watchdog (if any) considers
// the run healthy, and the latched *telemetry.HealthError naming the
// first unstable step otherwise.
func (s *Simulation) Health() error {
	if s.watchdog == nil {
		return nil
	}
	return s.watchdog.Err()
}

// StepCount returns the number of completed time steps, including steps
// recorded in a restored checkpoint.
func (s *Simulation) StepCount() int { return s.stepOffset + s.eng.stepCount() }

// Close releases worker goroutines held by parallel engines and, when a
// TraceFile is configured, writes the accumulated Chrome trace-event
// timeline. The Simulation must not be used afterwards. Close is safe
// for the sequential engine too (releasing nothing).
func (s *Simulation) Close() error {
	s.eng.close()
	if s.traceFile == nil {
		return nil
	}
	f := s.traceFile
	s.traceFile = nil
	if err := s.tracer.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("lbmib: writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lbmib: closing trace: %w", err)
	}
	return nil
}

// Config returns the configuration the simulation was built with
// (including derived defaults such as Tau).
func (s *Simulation) Config() Config { return s.cfg }

// FluidVelocity returns the macroscopic velocity at fluid node (x, y, z);
// coordinates wrap periodically.
func (s *Simulation) FluidVelocity(x, y, z int) [3]float64 { return s.eng.velocityAt(x, y, z) }

// FluidDensity returns the macroscopic density at fluid node (x, y, z).
func (s *Simulation) FluidDensity(x, y, z int) float64 { return s.eng.densityAt(x, y, z) }

// TotalMass returns the total distribution mass, an exactly conserved
// invariant useful for sanity checks.
func (s *Simulation) TotalMass() float64 { return s.eng.snapshot().TotalMass() }

// MaxVelocity returns the largest fluid speed; it must remain well below
// the lattice sound speed (≈0.577) for the simulation to stay valid.
func (s *Simulation) MaxVelocity() float64 { return s.eng.snapshot().MaxVelocity() }

// HasSheet reports whether a structure is immersed.
func (s *Simulation) HasSheet() bool { return len(s.sheets) > 0 }

// NumSheets returns how many sheets compose the immersed structure.
func (s *Simulation) NumSheets() int { return len(s.sheets) }

// sheetAt returns sheet i or an error.
func (s *Simulation) sheetAt(i int) (*fiber.Sheet, error) {
	if i < 0 || i >= len(s.sheets) {
		return nil, fmt.Errorf("lbmib: sheet index %d of %d sheets", i, len(s.sheets))
	}
	return s.sheets[i], nil
}

// SheetPositionsAt returns a copy of sheet i's node positions.
func (s *Simulation) SheetPositionsAt(i int) ([][3]float64, error) {
	sh, err := s.sheetAt(i)
	if err != nil {
		return nil, err
	}
	return append([][3]float64(nil), sh.X...), nil
}

// SheetVelocitiesAt returns a copy of sheet i's node velocities.
func (s *Simulation) SheetVelocitiesAt(i int) ([][3]float64, error) {
	sh, err := s.sheetAt(i)
	if err != nil {
		return nil, err
	}
	return append([][3]float64(nil), sh.Vel...), nil
}

// FluidSnapshot returns the complete fluid state as a slab grid with
// normalized buffer parity, the representation the validation and
// checkpointing layers consume. For the slab engines the returned grid
// aliases live solver storage: treat it as read-only and re-request it
// after stepping.
func (s *Simulation) FluidSnapshot() *grid.Grid {
	g := s.eng.snapshot()
	g.Normalize()
	return g
}

// SheetCentroidAt returns sheet i's mean node position.
func (s *Simulation) SheetCentroidAt(i int) ([3]float64, error) {
	sh, err := s.sheetAt(i)
	if err != nil {
		return [3]float64{}, err
	}
	return sh.Centroid(), nil
}

// firstSheet is the target of the single-sheet convenience accessors.
func (s *Simulation) firstSheet() *fiber.Sheet {
	if len(s.sheets) == 0 {
		return nil
	}
	return s.sheets[0]
}

// SheetPositions returns a copy of all fiber-node positions in flat order
// (fiber-major), or nil without a sheet.
func (s *Simulation) SheetPositions() [][3]float64 {
	if s.firstSheet() == nil {
		return nil
	}
	return append([][3]float64(nil), s.firstSheet().X...)
}

// SheetVelocities returns a copy of all fiber-node velocities, or nil.
func (s *Simulation) SheetVelocities() [][3]float64 {
	if s.firstSheet() == nil {
		return nil
	}
	return append([][3]float64(nil), s.firstSheet().Vel...)
}

// SheetCentroid returns the mean fiber-node position.
func (s *Simulation) SheetCentroid() ([3]float64, error) {
	if s.firstSheet() == nil {
		return [3]float64{}, fmt.Errorf("lbmib: simulation has no sheet")
	}
	return s.firstSheet().Centroid(), nil
}

// SheetEnergy returns the sheet's elastic (bending + stretching) energy.
func (s *Simulation) SheetEnergy() (float64, error) {
	if s.firstSheet() == nil {
		return 0, fmt.Errorf("lbmib: simulation has no sheet")
	}
	return s.firstSheet().ElasticEnergy(), nil
}

// WriteSheetCSV writes the sheet's nodes as CSV (fiber, node, position,
// velocity).
func (s *Simulation) WriteSheetCSV(w io.Writer) error {
	if s.firstSheet() == nil {
		return fmt.Errorf("lbmib: simulation has no sheet")
	}
	return output.WriteSheetCSV(w, s.firstSheet())
}

// WriteSheetVTK writes the sheet as legacy-VTK polydata for ParaView.
func (s *Simulation) WriteSheetVTK(w io.Writer) error {
	if s.firstSheet() == nil {
		return fmt.Errorf("lbmib: simulation has no sheet")
	}
	return output.WriteSheetVTK(w, s.firstSheet())
}

// WriteFluidVTK writes the fluid velocity/density fields as legacy VTK.
func (s *Simulation) WriteFluidVTK(w io.Writer) error {
	return output.WriteFluidVTK(w, s.eng.snapshot())
}

// WriteFluidSliceCSV writes the x = plane velocity slice as CSV.
func (s *Simulation) WriteFluidSliceCSV(w io.Writer, plane int) error {
	return output.WriteFluidSliceCSV(w, s.eng.snapshot(), plane)
}

// --- engine adapters ---

type seqEngine struct{ s *core.Solver }

func (e *seqEngine) step()                { e.s.Step() }
func (e *seqEngine) run(n int)            { e.s.Run(n) }
func (e *seqEngine) stepCount() int       { return e.s.StepCount() }
func (e *seqEngine) snapshot() *grid.Grid { return e.s.Fluid }
func (e *seqEngine) velocityAt(x, y, z int) [3]float64 {
	return e.s.Fluid.VelocityAt(x, y, z)
}
func (e *seqEngine) densityAt(x, y, z int) float64 {
	x, y, z = e.s.Fluid.Wrap(x, y, z)
	return e.s.Fluid.At(x, y, z).Rho
}
func (e *seqEngine) digest(d *grid.DigestGrid) error { return e.s.Fluid.Digest(d) }
func (e *seqEngine) close()                          {}
func (e *seqEngine) observe(si *stepInstr)           { e.s.Observer = si }
func (e *seqEngine) load(g *grid.Grid) error {
	copy(e.s.Fluid.Nodes, g.Nodes)
	return nil
}

type ompEngine struct{ s *omp.Solver }

func (e *ompEngine) step()          { e.s.Step() }
func (e *ompEngine) run(n int)      { e.s.Run(n) }
func (e *ompEngine) stepCount() int { return e.s.StepCount() }

// snapshot materializes the present buffer into the DF field first: the
// swap-based engine's live grid may have odd parity, and snapshot
// consumers (checkpointing, VTK output) read raw fields.
func (e *ompEngine) snapshot() *grid.Grid { e.s.Fluid.Normalize(); return e.s.Fluid }
func (e *ompEngine) velocityAt(x, y, z int) [3]float64 {
	return e.s.Fluid.VelocityAt(x, y, z)
}
func (e *ompEngine) densityAt(x, y, z int) float64 {
	x, y, z = e.s.Fluid.Wrap(x, y, z)
	return e.s.Fluid.At(x, y, z).Rho
}

// digest reads the present buffer in place — unlike snapshot it needs
// no Normalize, so the watchdog/steplog pass leaves the grid untouched.
func (e *ompEngine) digest(d *grid.DigestGrid) error { return e.s.Fluid.Digest(d) }
func (e *ompEngine) close()                          { e.s.Close() }
func (e *ompEngine) observe(si *stepInstr) {
	e.s.Observer = si
	if si.regionProf != nil || si.crit != nil {
		// stepInstr fans RegionDone out to whichever of the OmpP-style
		// profile and the critical-path profiler are configured.
		e.s.Regions = si
	}
	if si.cont != nil {
		e.s.Locks = si.cont
	}
}
func (e *ompEngine) load(g *grid.Grid) error {
	e.s.Fluid.Normalize() // align parity with the (normalized) snapshot
	copy(e.s.Fluid.Nodes, g.Nodes)
	// Re-establish the between-steps invariant Force == BodyForce that
	// SpreadForce relies on; the snapshot may carry another engine's
	// end-of-step force state, which is dead state for every engine.
	e.s.SeedForce()
	return nil
}

type cubeEngine struct{ s *cubesolver.Solver }

func (e *cubeEngine) step()                { e.s.Step() }
func (e *cubeEngine) run(n int)            { e.s.Run(n) }
func (e *cubeEngine) stepCount() int       { return e.s.StepCount() }
func (e *cubeEngine) snapshot() *grid.Grid { return e.s.Fluid.ToGrid() }
func (e *cubeEngine) velocityAt(x, y, z int) [3]float64 {
	return e.s.Fluid.VelocityAt(x, y, z)
}
func (e *cubeEngine) densityAt(x, y, z int) float64 {
	x, y, z = e.s.Fluid.Wrap(x, y, z)
	return e.s.Fluid.At(x, y, z).Rho
}

// digest walks the cube layout in place, avoiding the full-grid
// materialization that snapshot's ToGrid would allocate every step.
func (e *cubeEngine) digest(d *grid.DigestGrid) error { return e.s.Fluid.Digest(d) }
func (e *cubeEngine) close()                          { e.s.Close() }
func (e *cubeEngine) observe(si *stepInstr) {
	e.s.Observer = si
	if si.cont != nil {
		e.s.Contention = si.cont
		si.heatmap = perfmon.NewCubeHeatmap(e.s.Fluid.CX, e.s.Fluid.CY, e.s.Fluid.CZ, e.s.Fluid.K, si.threads)
		e.s.CubeWork = si.heatmap
	}
	if si.crit != nil {
		e.s.Arrivals = si.crit
	}
}
func (e *cubeEngine) load(g *grid.Grid) error {
	if err := e.s.Fluid.FromGrid(g); err != nil {
		return err
	}
	// Re-establish the between-steps invariant Force == BodyForce (the
	// snapshot may carry the sequential engine's end-of-step force state,
	// which every engine treats as dead).
	e.s.SeedForce()
	return nil
}

type fusedEngine struct{ s *fused.Solver }

func (e *fusedEngine) step()          { e.s.Step() }
func (e *fusedEngine) run(n int)      { e.s.Run(n) }
func (e *fusedEngine) stepCount() int { return e.s.StepCount() }

// snapshot normalizes like the OpenMP engine's; in float32 mode it also
// materializes the reduced-precision storage into the grid's DF fields.
func (e *fusedEngine) snapshot() *grid.Grid { return e.s.Snapshot() }
func (e *fusedEngine) velocityAt(x, y, z int) [3]float64 {
	return e.s.Fluid.VelocityAt(x, y, z)
}
func (e *fusedEngine) densityAt(x, y, z int) float64 {
	x, y, z = e.s.Fluid.Wrap(x, y, z)
	return e.s.Fluid.At(x, y, z).Rho
}
func (e *fusedEngine) digest(d *grid.DigestGrid) error { return e.s.Digest(d) }
func (e *fusedEngine) close()                          { e.s.Close() }
func (e *fusedEngine) observe(si *stepInstr) {
	e.s.Observer = si
	// The fiber kernels inherited from the OpenMP-style solver support
	// region accounting, but the fused step reports through the phase
	// vocabulary instead; the phase profile and the sweep's two timed
	// barrier sites (mid-sweep and end-of-sweep joins) apply here.
	if si.cont != nil {
		e.s.Contention = si.cont
	}
	if si.crit != nil {
		e.s.Arrivals = si.crit
	}
}
func (e *fusedEngine) load(g *grid.Grid) error { return e.s.Load(g) }

type taskflowEngine struct{ s *taskflow.Solver }

func (e *taskflowEngine) step()                { e.s.Step() }
func (e *taskflowEngine) run(n int)            { e.s.Run(n) }
func (e *taskflowEngine) stepCount() int       { return e.s.StepCount() }
func (e *taskflowEngine) snapshot() *grid.Grid { return e.s.Fluid.ToGrid() }
func (e *taskflowEngine) velocityAt(x, y, z int) [3]float64 {
	return e.s.Fluid.VelocityAt(x, y, z)
}
func (e *taskflowEngine) densityAt(x, y, z int) float64 {
	x, y, z = e.s.Fluid.Wrap(x, y, z)
	return e.s.Fluid.At(x, y, z).Rho
}
func (e *taskflowEngine) digest(d *grid.DigestGrid) error { return e.s.Fluid.Digest(d) }
func (e *taskflowEngine) close()                          {}

// observe attaches the per-phase observer: each worker reports every
// task body it executes (phases interleave across steps, so the step
// index in each callback — not arrival order — says which step the
// sample belongs to).
func (e *taskflowEngine) observe(si *stepInstr) { e.s.Observer = si }
func (e *taskflowEngine) load(g *grid.Grid) error {
	if err := e.s.Fluid.FromGrid(g); err != nil {
		return err
	}
	for i := range e.s.Fluid.Nodes {
		e.s.Fluid.Nodes[i].Force = e.s.BodyForce
	}
	return nil
}
