// Package cubesolver implements the paper's contribution: the cube-centric
// multithreaded LBM-IB algorithm of Section V (Algorithm 4).
//
// The fluid grid is stored as contiguous k×k×k cubes (internal/cube) that
// a user-defined distribution function cube2thread maps onto a P×Q×R
// logical thread mesh; fibers are mapped with fiber2thread. Every worker
// executes the whole time-step loop over the full cube/fiber index space,
// computing only the cubes and fibers it owns, and synchronizes with a
// small number of global barriers.
//
// Cross-thread force spreading is lock-free by default: each worker
// accumulates contributions to cubes it does not own into a private,
// sparse per-cube buffer (contributions to its own cubes go straight to
// the grid), and after the spread barrier every owner folds the workers'
// buffers into its own cubes in ascending thread order — a deterministic
// owner-partitioned reduction, so results are reproducible run-to-run at
// a fixed thread count (see DESIGN.md §13). The paper's scheme — one
// private lock per owner thread, "a cube will be protected by its owner
// thread's private lock" — is kept behind Config.LockedSpread as the
// contention ablation and equivalence foil.
//
// Deviation from the published pseudocode, documented in DESIGN.md: the
// paper's Algorithm 4 shows three barriers per step (after loops 2, 3 and
// 5) but no barrier between the fiber loop (kernels 1–4) and the fluid
// loop (kernels 5–6). Kernel 5 reads the elastic force that loop 1 spreads
// toward cubes owned by other threads, so a fourth barrier after loop 1 is
// required for a correct execution; this implementation inserts it — but
// only when it orders anything: fluid-only and single-thread runs skip it,
// restoring the paper's three-barrier schedule. The BarrierPerKernel
// schedule (one barrier after every loop, as a naive port would do) is
// kept as an ablation and always synchronizes after the spread.
package cubesolver

import (
	"fmt"
	"sync"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/fiber"
	"lbmib/internal/ibm"
	"lbmib/internal/lattice"
	"lbmib/internal/par"
)

// BarrierSchedule selects how many global barriers each time step uses.
type BarrierSchedule int

const (
	// BarrierMinimal uses four barriers per step: after the fiber loop
	// (correctness addition), after collide+stream, after the velocity
	// update, and at the end of the step — the paper's minimized schedule
	// plus the required spread→collision barrier.
	BarrierMinimal BarrierSchedule = iota
	// BarrierPerKernel synchronizes after every loop nest; the ablation
	// baseline for the paper's "minimize the number of barriers" claim.
	BarrierPerKernel
)

// Phase identifies one of the five loop nests of Algorithm 4, for
// per-thread load-imbalance accounting.
type Phase int

// The five loop nests of Algorithm 4.
const (
	PhaseFibersForce    Phase = iota + 1 // 1st loop: kernels 1–4 on owned fibers
	PhaseCollideStream                   // 2nd loop: kernels 5–6 on owned cubes
	PhaseUpdateVelocity                  // 3rd loop: kernel 7 on owned cubes
	PhaseMoveFibers                      // 4th loop: kernel 8 on owned fibers
	PhaseCopy                            // 5th loop: kernel 9, retired to an O(1) buffer swap
)

// NumPhases is the number of loop nests per time step.
const NumPhases = 5

var phaseNames = [NumPhases + 1]string{
	"", "fiber_force_spread", "collide_stream", "update_velocity", "move_fibers", "swap_distribution",
}

// String names the phase.
func (p Phase) String() string {
	if p < 1 || p > NumPhases {
		return "unknown_phase"
	}
	return phaseNames[p]
}

// PhaseObserver receives the wall-clock duration each worker spent in each
// loop nest; the profiling harness uses it to measure load imbalance (the
// paper's OmpP substitute).
type PhaseObserver interface {
	PhaseDone(step, tid int, p Phase, d time.Duration)
}

// Config assembles a cube-based LBM-IB problem.
type Config struct {
	NX, NY, NZ    int
	CubeSize      int // k; fluid dimensions must be multiples of it
	Threads       int
	Tau           float64
	BodyForce     [3]float64
	BCX, BCY, BCZ core.BC
	// LidVelocity is the tangential velocity of the z-max wall when BCZ
	// is BounceBack (Ladd's momentum-exchange bounce-back).
	LidVelocity [3]float64
	Sheet       *fiber.Sheet   // single-sheet convenience, appended to Sheets
	Sheets      []*fiber.Sheet // the immersed structure's sheets
	Dist        par.Dist       // cube2thread / fiber2thread policy (default Block)
	BlockSize   int            // block-cyclic block size
	Barriers    BarrierSchedule
	// LegacyCopy restores the paper's kernel 9 (the per-node buffer copy
	// loop) instead of the O(1) buffer swap — kept for the copy-vs-swap
	// ablation; results are bitwise identical either way.
	LegacyCopy bool
	// LockedSpread restores the paper's per-owner-thread spreading locks
	// instead of the default lock-free per-thread accumulation + reduction
	// — kept for the contention ablation and as the crosscheck foil. Both
	// paths match the sequential reference within the validation tolerance;
	// only the lock-free path is deterministic run-to-run at a fixed
	// thread count.
	LockedSpread bool
}

// Solver is the cube-centric parallel LBM-IB solver.
type Solver struct {
	Fluid       *cube.Layout
	Sheets      []*fiber.Sheet
	Tau         float64
	BodyForce   [3]float64
	BCX         core.BC
	BCY         core.BC
	BCZ         core.BC
	LidVelocity [3]float64
	Map         par.CubeMap
	FiberDist   par.Dist
	Barriers    BarrierSchedule
	LegacyCopy  bool
	// LockedSpread selects the per-owner-lock spreading path (see
	// Config.LockedSpread); the default is the lock-free reduction.
	LockedSpread bool

	Observer PhaseObserver

	// Contention, when non-nil, receives per-thread barrier waits (by
	// call site) and spreading-lock waits; CubeWork, when non-nil,
	// receives per-cube per-phase work samples for the load heatmap.
	// Both default to nil — the uninstrumented step takes the exact
	// pre-existing code paths.
	Contention ContentionObserver
	CubeWork   CubeWorkObserver

	// Arrivals, when non-nil, receives full arrival attribution (rank,
	// crossing, last-arriver identity) for every barrier crossing — the
	// feed of the critical-path profiler. Defaults to nil with the same
	// zero-overhead contract as Contention.
	Arrivals BarrierArrivalObserver

	// bc resolves boundary streaming with the body shared across engines
	// (core.StreamBC), so the cube solver cannot drift from the reference.
	bc core.StreamBC

	team         *par.Team
	barrier      *par.Barrier
	timedBarrier par.TimedBarrier // wraps barrier; used only with Contention set
	ownerLocks   []sync.Mutex     // one private lock per thread (LockedSpread path)
	accums       []*spreadAccum   // per-thread spread buffers (lock-free path); nil with LockedSpread
	step         int

	// streamDelta[i] is the in-cube flat offset of the e_i neighbor for
	// nodes strictly inside a cube.
	streamDelta [lattice.Q]int
}

// NewSolver builds the solver, the thread mesh, and the data distribution.
// A Threads count the cube mesh cannot feed is clamped down (see
// effectiveThreads): every worker in the team owns at least one cube.
func NewSolver(cfg Config) (*Solver, error) {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.CubeSize == 0 {
		cfg.CubeSize = 4
	}
	layout, err := cube.NewLayout(cfg.NX, cfg.NY, cfg.NZ, cfg.CubeSize)
	if err != nil {
		return nil, err
	}
	cfg.Threads = effectiveThreads(cfg.Threads, layout, cfg.Dist, cfg.BlockSize)
	if cfg.Tau == 0 { //lint:allow floatcheck -- Tau==0 is the documented "unset" sentinel; real values are vetted by ValidateTau
		cfg.Tau = 0.6
	}
	if err := core.ValidateTau(cfg.Tau); err != nil {
		return nil, fmt.Errorf("cubesolver: %w", err)
	}
	s := &Solver{
		Fluid:       layout,
		Sheets:      cfg.allSheets(),
		Tau:         cfg.Tau,
		BodyForce:   cfg.BodyForce,
		BCX:         cfg.BCX,
		BCY:         cfg.BCY,
		BCZ:         cfg.BCZ,
		LidVelocity: cfg.LidVelocity,
		Map: par.CubeMap{
			CX: layout.CX, CY: layout.CY, CZ: layout.CZ,
			Mesh: par.NewMesh(cfg.Threads), Dist: cfg.Dist, BlockSize: cfg.BlockSize,
		},
		FiberDist:    cfg.Dist,
		Barriers:     cfg.Barriers,
		LegacyCopy:   cfg.LegacyCopy,
		LockedSpread: cfg.LockedSpread,
		bc: core.StreamBC{
			NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
			BCX: cfg.BCX, BCY: cfg.BCY, BCZ: cfg.BCZ,
			LidVelocity: cfg.LidVelocity,
		},
		team:       par.NewTeam(cfg.Threads),
		barrier:    par.NewBarrier(cfg.Threads),
		ownerLocks: make([]sync.Mutex, cfg.Threads),
	}
	s.timedBarrier = par.TimedBarrier{B: s.barrier, Rec: s.recordBarrierWait, Arrive: s.recordBarrierArrive}
	if !cfg.LockedSpread {
		nc := layout.CX * layout.CY * layout.CZ
		s.accums = make([]*spreadAccum, cfg.Threads)
		for i := range s.accums {
			s.accums[i] = newSpreadAccum(nc)
		}
	}
	for i := 0; i < lattice.Q; i++ {
		k := layout.K
		s.streamDelta[i] = (lattice.E[i][0]*k+lattice.E[i][1])*k + lattice.E[i][2]
	}
	// Kernel 4 accumulates on top of the previous step's reset; seed the
	// initial body force the same way the update-velocity loop will
	// maintain it.
	s.SeedForce()
	return s, nil
}

// effectiveThreads clamps a requested worker count so that every worker
// owns at least one cube under the resulting P×Q×R mesh and distribution.
// Requesting more workers than cubes — or a mesh whose axis factors
// strand a mesh coordinate with an empty axis range — used to produce
// idle workers that still participated in every barrier, skewing the
// imbalance attribution toward the phantom threads. The largest count
// (≤ requested) whose distribution leaves no thread empty is used.
func effectiveThreads(requested int, layout *cube.Layout, d par.Dist, blockSize int) int {
	t := requested
	if n := layout.CX * layout.CY * layout.CZ; t > n {
		t = n
	}
	for ; t > 1; t-- {
		m := par.CubeMap{
			CX: layout.CX, CY: layout.CY, CZ: layout.CZ,
			Mesh: par.NewMesh(t), Dist: d, BlockSize: blockSize,
		}
		empty := false
		for _, c := range m.Counts() {
			if c == 0 {
				empty = true
				break
			}
		}
		if !empty {
			break
		}
	}
	return t
}

// SeedForce initializes every node's force to the uniform body force —
// the between-steps invariant the update-velocity loop maintains. It must
// be called after loading external state into the fluid layout (e.g. a
// checkpoint) because spreading accumulates on top of this reset.
func (s *Solver) SeedForce() {
	body := s.BodyForce
	for i := range s.Fluid.Nodes {
		s.Fluid.Nodes[i].Force = body
	}
}

// Sheet returns the first immersed sheet (nil without a structure).
func (s *Solver) Sheet() *fiber.Sheet {
	if len(s.Sheets) == 0 {
		return nil
	}
	return s.Sheets[0]
}

// Close releases the worker team.
func (s *Solver) Close() { s.team.Close() }

// Threads returns the team width.
func (s *Solver) Threads() int { return s.team.Size() }

// StepCount returns the number of completed time steps.
func (s *Solver) StepCount() int { return s.step }

// Step advances one time step.
func (s *Solver) Step() { s.Run(1) }

// Run executes n time steps with the persistent worker team: every worker
// runs the whole loop structure of Algorithm 4, including the global
// barriers, until all n steps are done.
//
// Buffer parity is captured once here, before the team forks, and each
// worker derives its step's parity from the step index alone (the swap
// flips it exactly once per step on the default path). No worker reads
// the layout's shared parity bit mid-run, which is what makes thread 0's
// Swap in the 5th loop conflict-free and lets endBarrierNeeded fold the
// end-of-step barrier when nothing else spans it (see timeStep).
func (s *Solver) Run(n int) {
	if n <= 0 {
		return
	}
	first := s.step
	p0 := s.Fluid.Cur()
	s.team.Run(func(tid int) {
		for st := first; st < first+n; st++ {
			cur := p0
			if !s.LegacyCopy {
				cur = p0 ^ ((st - first) & 1)
			}
			s.timeStep(st, tid, cur)
		}
	})
	s.step += n
}

// timeStep is Thread_entry_fn's per-step body (Algorithm 4). cur is the
// step's distribution-buffer parity, derived from the step index by Run
// so that workers never load the shared parity bit between barriers.
func (s *Solver) timeStep(step, tid, cur int) {
	phase := func(p Phase, fn func()) {
		if s.Observer == nil {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		s.Observer.PhaseDone(step, tid, p, time.Since(t0))
	}
	perKernel := s.Barriers == BarrierPerKernel
	// gen stamps this step's spread accumulation; generations are never
	// reused, which is what lets the lock-free buffers skip zeroing.
	gen := step + 1

	// 1st loop: kernels 1–4 on owned fibers.
	phase(PhaseFibersForce, func() { s.fiberForceLoop(tid, gen) })
	// Spread → collision dependency (see package comment). The minimal
	// schedule folds this barrier away when it orders nothing: without
	// fibers no forces are spread, and a single worker spreads and
	// collides in program order. The condition is thread-invariant, so
	// every worker takes the same branch.
	if perKernel || s.spreadBarrierNeeded() {
		s.waitBarrier(SiteAfterSpread, tid)
	}

	// 2nd loop: kernels 5–6 on owned cubes (the lock-free path first folds
	// the workers' spread buffers into each owned cube).
	phase(PhaseCollideStream, func() { s.collideStreamLoop(tid, perKernel, gen, cur) })
	s.waitBarrier(SiteAfterStream, tid) // streaming → velocity-update dependency (paper's 1st barrier)

	// 3rd loop: kernel 7 on owned cubes.
	phase(PhaseUpdateVelocity, func() { s.updateVelocityLoop(tid, cur) })
	s.waitBarrier(SiteAfterVelocity, tid) // velocity → move-fibers dependency (paper's 2nd barrier)

	// 4th loop: kernel 8 on owned fibers.
	phase(PhaseMoveFibers, func() { s.moveFibersLoop(tid) })
	if perKernel {
		s.waitBarrier(SiteAfterMove, tid)
	}

	// 5th loop: kernel 9. Retired by default: thread 0 flips the layout's
	// buffer parity in O(1) and everyone else's loop body is empty (each
	// thread still reports the phase to its observer). The preceding
	// barrier orders the flip after every thread's kernel-7 reads; workers
	// derive their own parity from the step index, so the flip itself is
	// unread until the run joins. With LegacyCopy every thread copies its
	// owned cubes as published.
	phase(PhaseCopy, func() { s.copyLoop(tid, cur) })
	// End-of-step barrier (paper's 3rd). The phase-effect analysis
	// (lbmib-lint -fusibility, DESIGN.md §16) proves it orders nothing in
	// a fluid-only swap-path run: the move-fibers and copy phases between
	// the after-velocity barrier and the next step's collide are then
	// empty of cross-thread effects — fibers' X writes are absent, parity
	// is derived per worker, and thread 0's Swap is unread until the team
	// joins. With fibers it is required (move writes sheet X that the
	// next step's bending stencil reads across fibers); with LegacyCopy
	// it is required (the copy reads post-streaming buffers the next
	// step's streaming overwrites cross-cube). The condition is
	// thread-invariant, so every worker takes the same branch.
	if perKernel || s.endBarrierNeeded() {
		s.waitBarrier(SiteEndOfStep, tid)
	}
}

// allSheets resolves the Config's structure list.
func (c Config) allSheets() []*fiber.Sheet {
	sheets := append([]*fiber.Sheet(nil), c.Sheets...)
	if c.Sheet != nil {
		sheets = append(sheets, c.Sheet)
	}
	return sheets
}

// fiberForceLoop runs kernels 1–4 for every fiber owned by tid; fibers
// are indexed globally across the structure's sheets. Spreading goes
// through the worker's private accumulation buffer (lock-free default)
// or the per-owner locks (LockedSpread); gen stamps this step's buffers.
func (s *Solver) fiberForceLoop(tid, gen int) {
	total := fiber.TotalFibers(s.Sheets)
	n := s.team.Size()
	var acc *accumWriter
	if s.accums != nil {
		acc = &accumWriter{s: s, acc: s.accums[tid], tid: tid, gen: gen}
	}
	for g := 0; g < total; g++ {
		if par.FiberToThread(g, total, n, s.FiberDist) != tid {
			continue
		}
		sh, f := fiber.Locate(s.Sheets, g)
		area := sh.AreaElement()
		lo, hi := f*sh.NodesPerFiber, (f+1)*sh.NodesPerFiber
		sh.ComputeBendingForce(lo, hi)
		sh.ComputeStretchingForce(lo, hi)
		sh.ComputeElasticForce(lo, hi)
		if acc != nil {
			for i := lo; i < hi; i++ {
				ibm.Spread(acc, sh.X[i], sh.Force[i], area)
			}
			continue
		}
		for i := lo; i < hi; i++ {
			s.spreadLocked(tid, sh.X[i], sh.Force[i], area)
		}
	}
}

// spreadLocked spreads one fiber node's force under per-owner locking: the
// 4×4×4 influential domain is walked in layout order and the owner lock of
// each target cube is held while its nodes are updated. Only one lock is
// held at a time, so the scheme cannot deadlock; consecutive targets that
// share an owner reuse the held lock. tid is the spreading thread, used
// only for lock-wait attribution; owners already locked once within this
// stencil report their return legs as re-acquisitions (the A→B→A walk),
// keeping fresh-acquisition rates honest.
func (s *Solver) spreadLocked(tid int, x [3]float64, F [3]float64, area float64) {
	var st ibm.Stencil
	st.Compute(x)
	l := s.Fluid
	held := -1
	var seenBuf [8]int // a 4-wide window crosses each cube axis at most once for k ≥ 4
	seen := seenBuf[:0]
	for i := 0; i < ibm.SupportWidth; i++ {
		wx := st.Wx[i]
		if wx == 0 { //lint:allow floatcheck -- exact-zero delta-function weight: product is exactly 0, skip is lossless
			continue
		}
		for j := 0; j < ibm.SupportWidth; j++ {
			wxy := wx * st.Wy[j]
			if wxy == 0 { //lint:allow floatcheck -- exact-zero delta-function weight: product is exactly 0, skip is lossless
				continue
			}
			for k := 0; k < ibm.SupportWidth; k++ {
				w := wxy * st.Wz[k] * area
				if w == 0 { //lint:allow floatcheck -- exact-zero delta-function weight: product is exactly 0, skip is lossless
					continue
				}
				gx, gy, gz := l.Wrap(st.Base[0]+i, st.Base[1]+j, st.Base[2]+k)
				owner := s.Map.CubeToThread(l.CubeOf(gx, gy, gz))
				if owner != held {
					if held >= 0 {
						s.ownerLocks[held].Unlock()
					}
					reacquire := false
					for _, o := range seen {
						if o == owner {
							reacquire = true
							break
						}
					}
					if !reacquire {
						seen = append(seen, owner)
					}
					s.lockOwner(tid, owner, reacquire)
					held = owner
				}
				n := &l.Nodes[l.Idx(gx, gy, gz)]
				n.Force[0] += w * F[0]
				n.Force[1] += w * F[1]
				n.Force[2] += w * F[2]
			}
		}
	}
	if held >= 0 {
		s.ownerLocks[held].Unlock()
	}
}

// collideStreamLoop runs kernels 5 and 6 over the cubes owned by tid. With
// the per-kernel barrier schedule, collision over all owned cubes
// completes (and a barrier passes) before streaming starts; the minimal
// schedule fuses them per cube as in Algorithm 4. On the lock-free path
// each owned cube's spread reduction runs immediately before its
// collision — the owner is the only thread touching the cube here, so the
// reduction needs no synchronization beyond the spread barrier already
// passed, and the cube's nodes are hot in cache for the collision that
// follows.
func (s *Solver) collideStreamLoop(tid int, perKernel bool, gen, cur int) {
	reduce := s.accums != nil && fiber.TotalFibers(s.Sheets) > 0
	if perKernel {
		s.forOwnedCubesTimed(tid, PhaseCollideStream, func(c int) {
			if reduce {
				s.reduceSpreadCube(c, gen)
			}
			s.collideCube(c, cur)
		})
		s.waitBarrier(SiteAfterCollide, tid)
		s.forOwnedCubesTimed(tid, PhaseCollideStream, func(c int) { s.streamCube(c, cur) })
		return
	}
	s.forOwnedCubesTimed(tid, PhaseCollideStream, func(c int) {
		if reduce {
			s.reduceSpreadCube(c, gen)
		}
		s.collideCube(c, cur)
		s.streamCube(c, cur)
	})
}

// forOwnedCubes visits every cube owned by tid, in cube-index order —
// Algorithm 4's "for each cube ... if cube2thread(I,J,K) == tid".
func (s *Solver) forOwnedCubes(tid int, fn func(c int)) {
	l := s.Fluid
	for cx := 0; cx < l.CX; cx++ {
		for cy := 0; cy < l.CY; cy++ {
			for cz := 0; cz < l.CZ; cz++ {
				if s.Map.CubeToThread(cx, cy, cz) == tid {
					fn(l.CubeIndex(cx, cy, cz))
				}
			}
		}
	}
}

// collideCube applies the BGK+Guo collision to every node of cube c; the
// cube's nodes are one contiguous block, the working set the paper's
// locality argument is about.
func (s *Solver) collideCube(c, cur int) {
	nodes := s.Fluid.CubeNodes(c)
	for i := range nodes {
		core.CollideNodeBuf(&nodes[i], s.Tau, cur)
	}
}

// streamCube pushes post-collision distributions from every node of cube c
// to its 18 neighbors (possibly in other cubes), honoring the boundary
// conditions. Each (node, direction) pair has exactly one writer, so
// cross-cube writes need no locks.
func (s *Solver) streamCube(c, cur int) {
	l := s.Fluid
	k := l.K
	cx, cy, cz := l.CubeCoord(c)
	x0, y0, z0 := cx*k, cy*k, cz*k
	for lx := 0; lx < k; lx++ {
		for ly := 0; ly < k; ly++ {
			for lz := 0; lz < k; lz++ {
				s.streamNode(x0+lx, y0+ly, z0+lz, cur)
			}
		}
	}
}

func (s *Solver) streamNode(x, y, z, cur int) {
	l := s.Fluid
	next := 1 - cur
	idx := l.Idx(x, y, z)
	src := &l.Nodes[idx]
	srcBuf := src.Buf(cur)
	k := l.K
	lx, ly, lz := x%k, y%k, z%k
	if lx > 0 && lx < k-1 && ly > 0 && ly < k-1 && lz > 0 && lz < k-1 {
		// Strictly inside the cube: every neighbor lives in the same
		// contiguous block at a fixed offset.
		for i := 0; i < lattice.Q; i++ {
			l.Nodes[idx+s.streamDelta[i]].Buf(next)[i] = srcBuf[i]
		}
		return
	}
	for i := 0; i < lattice.Q; i++ {
		tx, ty, tz, refl, bounce := s.bc.Resolve(i, x, y, z, srcBuf[i], src.Rho)
		if bounce {
			src.Buf(next)[lattice.Opposite[i]] = refl
			continue
		}
		l.Nodes[l.Idx(tx, ty, tz)].Buf(next)[i] = srcBuf[i]
	}
}

// updateVelocityLoop runs kernel 7 over owned cubes. After a node's
// moments are computed (they read the elastic force for the half-force
// correction) its force is reset to the uniform body force — the reset
// the paper's loop 5 performed, folded here so the retired copy loop
// leaves nothing behind.
func (s *Solver) updateVelocityLoop(tid, cur int) {
	next := 1 - cur
	body := s.BodyForce
	s.forOwnedCubesTimed(tid, PhaseUpdateVelocity, func(c int) {
		nodes := s.Fluid.CubeNodes(c)
		for i := range nodes {
			core.UpdateVelocityNodeBuf(&nodes[i], next)
			nodes[i].Force = body
		}
	})
}

// moveFibersLoop runs kernel 8 over owned fibers. Fluid velocities are
// read-only in this phase.
func (s *Solver) moveFibersLoop(tid int) {
	total := fiber.TotalFibers(s.Sheets)
	n := s.team.Size()
	for g := 0; g < total; g++ {
		if par.FiberToThread(g, total, n, s.FiberDist) != tid {
			continue
		}
		sh, f := fiber.Locate(s.Sheets, g)
		core.MoveSheetNodes(s.Fluid, sh, f*sh.NodesPerFiber, (f+1)*sh.NodesPerFiber)
	}
}

// copyLoop is the 5th loop. By default kernel 9 is retired: only thread 0
// does anything, flipping the layout's buffer parity in O(1); the force
// reset that used to ride along lives in updateVelocityLoop. With
// LegacyCopy every thread runs the published per-node copy over its owned
// cubes instead.
func (s *Solver) copyLoop(tid, cur int) {
	if !s.LegacyCopy {
		if tid == 0 {
			s.Fluid.Swap()
		}
		return
	}
	s.forOwnedCubesTimed(tid, PhaseCopy, func(c int) {
		nodes := s.Fluid.CubeNodes(c)
		for i := range nodes {
			*nodes[i].Buf(cur) = *nodes[i].Buf(1 - cur)
		}
	})
}
