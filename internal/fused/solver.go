// Package fused implements the memory-aware fused engine: collide,
// stream, boundary handling, macroscopic update, and the buffer swap —
// kernels 5, 6, 7, and 9 of Algorithm 1 — executed as a single
// pull-streaming sweep over the double-buffered slab grid, so each fluid
// node's distributions are read once and written once per time step
// instead of once per kernel. This follows the memory-aware single-node
// optimization of Fu & Song's 3D LBM work (PAPERS.md #1): on a
// memory-bound stencil, fusing passes is worth more than any further
// intra-kernel tuning.
//
// # Pull streaming
//
// The sequential reference and the OpenMP-style solver stream by pushing:
// node s writes its post-collision value g_q into neighbor (s+e_q)'s
// post-streaming buffer. The fused sweep inverts the data flow: node n
// gathers slot q from its upwind neighbor n−e_q. The two are value-wise
// identical, slot by slot:
//
//   - each post-streaming slot (n, q) has exactly one push writer — either
//     the upwind neighbor n−e_q (periodic wrap included), or n itself
//     reflecting direction opposite[q] off a bounce-back wall;
//   - core.StreamBC.Resolve(opposite[q], n) classifies exactly that
//     dichotomy from the pull side: it reports bounce (with the Ladd
//     moving-lid term computed from n's own pre-update density, just as
//     the push side computes it from the same node) or else returns the
//     wrapped coordinates of n+e_{opposite[q]} = n−e_q, the upwind source;
//   - the rest slot q = 0 is its own source.
//
// No arithmetic differs — the float64 fused engine is therefore bitwise
// identical to the OpenMP-style engine at any thread count, and matches
// the sequential reference under the same conditions that engine does
// (exactly, except for the parallel force-spreading accumulation order
// when multiple threads spread fiber forces).
//
// # The wavefront sweep
//
// Pulling requires every upwind neighbor's post-collision value, so
// collision and gathering cannot naively fuse. The sweep runs as one
// parallel region over x-slabs (Static schedule, one contiguous chunk
// per thread — forced, the wavefront depends on it) with an explicit
// mid-sweep barrier:
//
//	one region (per thread, chunk [lo, hi)):
//	    region A:
//	        for x = lo .. hi−1:
//	            collide plane x in place on the present buffer
//	            if x ≥ lo+2: finalize plane x−1  // pull + moments, cache-hot
//	    barrier                                  // all chunks collided
//	    region B:
//	        finalize planes lo and hi−1          // need neighbor chunks' planes
//	swap buffer parity
//
// Finalizing plane x−1 reads collided planes x−2..x, all inside the
// thread's own chunk and still warm in cache; only the two chunk-edge
// planes wait for the barrier because they read a neighboring thread's
// planes. Region B is race-free: it reads only present-buffer values
// (which no longer change) and writes only the finalized node's own
// post-streaming slots and macroscopic fields. Finalization computes the
// node's moments from exactly the values it stored (the half-force Guo
// correction included) and resets the node's force to the uniform body
// force, the same fold of kernel 7 the OpenMP-style solver uses.
//
// The mid-sweep barrier is the engine's own par.Barrier (the team's
// implicit region join used to separate A and B when they were two
// dispatches; the explicit barrier keeps the identical ordering with one
// dispatch fewer) and is instrumentable: with a ContentionObserver or
// BarrierArrivalObserver attached, it and an extra end-of-sweep barrier
// report per-thread waits under the cube engine's site vocabulary
// (SiteAfterStream and SiteEndOfStep), which is what lets the
// contention profiles and the critical-path profiler cover this engine.
//
// # Float32 storage
//
// With Config.Float32 the distributions live in a grid.Dist32 — two
// float32 buffers replacing the node structs' float64 pair on the hot
// path, halving the distribution traffic that dominates the sweep.
// Arithmetic stays float64: values widen on load, round once on store,
// and the moments are computed from the rounded stored values so the
// macroscopic state remains a pure function of the stored distributions.
// Storage rounding puts this mode on a relaxed differential contract
// (~1e-5 vs the float64 reference; see internal/crosscheck), but it is
// still run-to-run deterministic and its checkpoints round-trip bitwise,
// because widening float32 to float64 is exact. The embedded grid keeps
// carrying macroscopic fields; its own float64 distribution buffers go
// stale between Materialize calls (the footprint stays, the traffic
// goes).
//
// Fiber kernels 1–4 and 8 are inherited unchanged from the OpenMP-style
// solver (same team, same lock-free spreading), so the immersed-boundary
// side of the method is shared code, not a fork.
package fused

import (
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
	"lbmib/internal/omp"
	"lbmib/internal/par"
)

// Config configures the fused engine.
type Config struct {
	core.Config
	Threads int // parallel region width; 0 means 1, clamped to NX
	// Float32 stores the velocity distributions as float32 (arithmetic
	// stays float64), halving the memory traffic of the fused sweep at
	// the cost of a relaxed (~1e-5) differential contract vs the float64
	// engines.
	Float32 bool
	// LockedSpread selects the mutex-protected force-spreading ablation
	// of the embedded OpenMP-style solver instead of the lock-free
	// default.
	LockedSpread bool
}

// Solver is the fused engine. It embeds the OpenMP-style solver as its
// state container, worker team, and fiber-kernel implementation, and
// replaces the four per-kernel fluid passes with the single fused sweep.
type Solver struct {
	*omp.Solver

	// Float32 reports whether distributions are stored in float32.
	Float32 bool

	// Observer, when non-nil, receives per-thread phase timings using the
	// cube engine's phase vocabulary: the fiber-force kernels report as
	// PhaseFibersForce (thread 0), region A of the sweep as
	// PhaseCollideStream and region B as PhaseUpdateVelocity (both per
	// thread), and kernel 8 as PhaseMoveFibers (thread 0). It shadows the
	// embedded solver's kernel Observer, which the fused step does not
	// drive.
	Observer cubesolver.PhaseObserver

	// Contention, when non-nil, receives per-thread barrier waits for the
	// sweep's two barrier sites, reported under the cube engine's site
	// vocabulary: the mid-sweep wavefront barrier as SiteAfterStream and
	// the end-of-sweep barrier as SiteEndOfStep. Arrivals, when non-nil,
	// additionally receives arrival ranks, crossing numbers, and
	// last-arriver identity — the critical-path profiler's feed. Both
	// default to nil: the uninstrumented sweep takes plain barrier waits
	// and skips the end-of-sweep site entirely (the region's implicit
	// join already orders it), so attaching neither costs nothing.
	Contention cubesolver.ContentionObserver
	Arrivals   cubesolver.BarrierArrivalObserver

	bc           core.StreamBC
	streamDelta  [lattice.Q]int
	d32          *grid.Dist32 // non-nil iff Float32
	barrier      *par.Barrier
	timedBarrier par.TimedBarrier
}

// NewSolver builds the fused engine and starts its worker team. Threads
// is clamped to NX like the embedded solver's; the loop schedule is
// always Static because the wavefront sweep requires one contiguous
// chunk per thread.
func NewSolver(cfg Config) (*Solver, error) {
	base, err := omp.NewSolver(omp.Config{
		Config:       cfg.Config,
		Threads:      cfg.Threads,
		LockedSpread: cfg.LockedSpread,
	})
	if err != nil {
		return nil, err
	}
	s := &Solver{
		Solver:  base,
		Float32: cfg.Float32,
		bc: core.StreamBC{
			NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
			BCX: cfg.BCX, BCY: cfg.BCY, BCZ: cfg.BCZ,
			LidVelocity: cfg.LidVelocity,
		},
		streamDelta: base.Fluid.StreamDeltas(),
		barrier:     par.NewBarrier(base.Threads),
	}
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Rec: s.recordBarrierWait, Arrive: s.recordBarrierArrive}
	if cfg.Float32 {
		s.d32 = grid.NewDist32(cfg.NX, cfg.NY, cfg.NZ)
		if err := s.d32.FromGrid(s.Fluid); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNewSolver is NewSolver for configurations known valid at the call
// site; it panics on error.
func MustNewSolver(cfg Config) *Solver {
	s, err := NewSolver(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// FaultHook, when non-nil, is invoked with the live solver after every
// completed fused step, before the step counter advances. It is a
// test-only seam mirroring omp.FaultHook: the crosscheck harness
// installs a streaming perturbation here to prove its differential
// oracles catch a fused sweep that drifts from the sequential reference.
// Production code never sets it.
var FaultHook func(*Solver)

// Step advances one time step: fiber kernels 1–4, the fused fluid sweep
// (kernels 5+6+7+9 in one pass), then kernel 8.
func (s *Solver) Step() {
	run := func(p cubesolver.Phase, fn func()) {
		if s.Observer == nil {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		s.Observer.PhaseDone(s.StepCount(), 0, p, time.Since(t0))
	}
	run(cubesolver.PhaseFibersForce, func() {
		s.ComputeBendingForce()
		s.ComputeStretchingForce()
		s.ComputeElasticForce()
		s.SpreadForce()
	})
	s.sweep()
	run(cubesolver.PhaseMoveFibers, s.MoveFibers)
	if FaultHook != nil {
		FaultHook(s)
	}
	s.AdvanceStep()
}

// Run executes n time steps. It must be (re)declared here: the promoted
// omp.Solver.Run would dispatch to the embedded solver's per-kernel Step.
func (s *Solver) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// sweep is the fused collide+stream+update+swap pass (see package doc).
// It is one parallel region: region A (collide + interior finalize),
// the explicit wavefront barrier, region B (chunk-edge finalize), and —
// only when barrier instrumentation is attached — an end-of-sweep
// barrier measuring the wait the region's implicit join would otherwise
// hide. Both instrumentation conditions are thread-invariant, so every
// worker executes the same barrier sequence.
func (s *Solver) sweep() {
	g := s.Fluid
	var cur int
	if s.Float32 {
		cur = s.d32.Cur()
	} else {
		cur = g.Cur()
	}
	next := 1 - cur
	tau, body := s.Tau, s.BodyForce
	obs, step := s.Observer, s.StepCount()
	measureJoin := s.Contention != nil || s.Arrivals != nil
	s.ParallelFor(g.NX, func(tid, lo, hi int) {
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		for x := lo; x < hi; x++ {
			s.collidePlane(x, cur, tau)
			if x >= lo+2 {
				s.finalizePlane(x-1, cur, next, body)
			}
		}
		if obs != nil {
			obs.PhaseDone(step, tid, cubesolver.PhaseCollideStream, time.Since(t0))
		}
		s.waitBarrier(cubesolver.SiteAfterStream, tid)
		if obs != nil {
			t0 = time.Now()
		}
		s.finalizePlane(lo, cur, next, body)
		if hi-1 != lo {
			s.finalizePlane(hi-1, cur, next, body)
		}
		if obs != nil {
			obs.PhaseDone(step, tid, cubesolver.PhaseUpdateVelocity, time.Since(t0))
		}
		if measureJoin {
			s.waitBarrier(cubesolver.SiteEndOfStep, tid)
		}
	})
	if s.Float32 {
		s.d32.Swap()
	} else {
		g.Swap()
	}
}

// waitBarrier is the sweep's instrumented barrier: a plain Barrier.Wait
// when neither observer is attached, a timed wait attributed to
// (site, tid) otherwise — the same contract as the cube solver's.
func (s *Solver) waitBarrier(site cubesolver.BarrierSite, tid int) {
	if s.Contention == nil && s.Arrivals == nil {
		s.barrier.Wait()
		return
	}
	s.timedBarrier.Wait(int(site), tid)
}

// recordBarrierWait adapts par.BarrierWaitFunc to the observer; bound
// once at construction. The field is re-read and guarded so detaching
// the observer between steps drops the sample instead of panicking.
func (s *Solver) recordBarrierWait(site, tid int, wait time.Duration) {
	obs := s.Contention
	if obs == nil {
		return
	}
	obs.BarrierWait(cubesolver.BarrierSite(site), tid, wait)
}

// recordBarrierArrive adapts par.BarrierArriveFunc to the observer with
// the same re-read-and-guard contract.
func (s *Solver) recordBarrierArrive(site, tid, rank int, crossing uint64, wait time.Duration, last bool) {
	obs := s.Arrivals
	if obs == nil {
		return
	}
	obs.BarrierArrive(cubesolver.BarrierSite(site), tid, rank, crossing, wait, last)
}

// collidePlane applies the BGK+Guo collision in place to every node of
// x-plane x on the present buffer.
func (s *Solver) collidePlane(x, cur int, tau float64) {
	g := s.Fluid
	nyz := g.NY * g.NZ
	if s.d32 != nil {
		buf := s.d32.Buf(cur)
		inv := 1 / tau
		for i := x * nyz; i < (x+1)*nyz; i++ {
			n := &g.Nodes[i]
			var geq, force [lattice.Q]float64
			lattice.Equilibrium(n.Rho, n.Vel, &geq)
			lattice.GuoForce(tau, n.Vel, n.Force, &force)
			base := i * lattice.Q
			for q := 0; q < lattice.Q; q++ {
				v := float64(buf[base+q])
				buf[base+q] = float32(v - inv*(v-geq[q]) + force[q])
			}
		}
		return
	}
	for i := x * nyz; i < (x+1)*nyz; i++ {
		core.CollideNodeBuf(&g.Nodes[i], tau, cur)
	}
}

// finalizePlane completes every node of x-plane x: it gathers the 19
// post-collision values from the upwind neighbors (pull streaming with
// boundary resolution) into the post-streaming buffer, recomputes the
// node's density and velocity from exactly those values, and resets its
// force to the uniform body force. Every collided value it reads is
// stable by construction of the wavefront (see package doc), and every
// write lands in the finalized node itself.
func (s *Solver) finalizePlane(x, cur, next int, body [3]float64) {
	if s.d32 != nil {
		s.finalizePlane32(x, cur, next, body)
		return
	}
	g := s.Fluid
	interiorX := x > 0 && x < g.NX-1
	for y := 0; y < g.NY; y++ {
		interiorY := interiorX && y > 0 && y < g.NY-1
		base := (x*g.NY + y) * g.NZ
		for z := 0; z < g.NZ; z++ {
			idx := base + z
			n := &g.Nodes[idx]
			nb := n.Buf(next)
			if interiorY && z > 0 && z < g.NZ-1 {
				for q := 0; q < lattice.Q; q++ {
					nb[q] = g.Nodes[idx-s.streamDelta[q]].Buf(cur)[q]
				}
			} else {
				cb := n.Buf(cur)
				for q := 0; q < lattice.Q; q++ {
					oq := lattice.Opposite[q]
					tx, ty, tz, refl, bounce := s.bc.Resolve(oq, x, y, z, cb[oq], n.Rho)
					if bounce {
						nb[q] = refl
					} else {
						nb[q] = g.Nodes[g.Idx(tx, ty, tz)].Buf(cur)[q]
					}
				}
			}
			n.Rho = lattice.Moments(nb, n.Force, &n.Vel)
			n.Force = body
		}
	}
}

// finalizePlane32 is finalizePlane on the float32 storage. Pulled values
// move between the buffers without re-rounding; the reflected bounce-back
// value is computed in float64 and rounded once on store. The moments
// read the rounded stored values, keeping the macroscopic state a pure
// function of the float32 state.
func (s *Solver) finalizePlane32(x, cur, next int, body [3]float64) {
	g := s.Fluid
	cb, nb := s.d32.Buf(cur), s.d32.Buf(next)
	interiorX := x > 0 && x < g.NX-1
	var tmp [lattice.Q]float64
	for y := 0; y < g.NY; y++ {
		interiorY := interiorX && y > 0 && y < g.NY-1
		planeBase := (x*g.NY + y) * g.NZ
		for z := 0; z < g.NZ; z++ {
			idx := planeBase + z
			n := &g.Nodes[idx]
			base := idx * lattice.Q
			if interiorY && z > 0 && z < g.NZ-1 {
				for q := 0; q < lattice.Q; q++ {
					v := cb[(idx-s.streamDelta[q])*lattice.Q+q]
					nb[base+q] = v
					tmp[q] = float64(v)
				}
			} else {
				for q := 0; q < lattice.Q; q++ {
					oq := lattice.Opposite[q]
					tx, ty, tz, refl, bounce := s.bc.Resolve(oq, x, y, z, float64(cb[base+oq]), n.Rho)
					if bounce {
						r := float32(refl)
						nb[base+q] = r
						tmp[q] = float64(r)
					} else {
						v := cb[g.Idx(tx, ty, tz)*lattice.Q+q]
						nb[base+q] = v
						tmp[q] = float64(v)
					}
				}
			}
			n.Rho = lattice.Moments(&tmp, n.Force, &n.Vel)
			n.Force = body
		}
	}
}

// Snapshot normalizes the solver's state into the paper's grid layout
// (present buffer in DF) and returns the grid. In float32 mode the
// stored distributions are widened — exactly — into the grid first.
func (s *Solver) Snapshot() *grid.Grid {
	if s.d32 != nil {
		// Shapes match by construction; the error path is unreachable.
		if err := s.d32.Materialize(s.Fluid); err != nil {
			panic(err)
		}
		return s.Fluid
	}
	s.Fluid.Normalize()
	return s.Fluid
}

// Load replaces the fluid state with g (a normalized snapshot, e.g. a
// restored checkpoint) and re-establishes the engine's invariants: the
// float32 shadow storage is refreshed and the force field is re-seeded
// with the body force.
func (s *Solver) Load(g *grid.Grid) error {
	s.Fluid.Normalize()
	copy(s.Fluid.Nodes, g.Nodes)
	if s.d32 != nil {
		if err := s.d32.FromGrid(s.Fluid); err != nil {
			return err
		}
	}
	s.SeedForce()
	return nil
}

// Digest folds the live fluid state into d for the flight recorder. The
// float64 path digests in place at the current parity; float32 state is
// materialized into the grid first.
func (s *Solver) Digest(d *grid.DigestGrid) error {
	if s.d32 != nil {
		if err := s.d32.Materialize(s.Fluid); err != nil {
			return err
		}
	}
	return s.Fluid.Digest(d)
}

// CopyNodeDist overwrites node dst's present distribution with node
// src's, in whichever storage mode is active — the perturbation seam the
// crosscheck fault-injection selftest drives through FaultHook.
func (s *Solver) CopyNodeDist(dst, src int) {
	if s.d32 != nil {
		cb := s.d32.Buf(s.d32.Cur())
		copy(cb[dst*lattice.Q:(dst+1)*lattice.Q], cb[src*lattice.Q:(src+1)*lattice.Q])
		return
	}
	cur := s.Fluid.Cur()
	*s.Fluid.Nodes[dst].Buf(cur) = *s.Fluid.Nodes[src].Buf(cur)
}
