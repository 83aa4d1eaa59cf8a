package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"lbmib"
	"lbmib/internal/core"
	"lbmib/internal/cube"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
	"lbmib/internal/par"
	"lbmib/internal/validate"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Parent is 0 for the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// call runs fn inside a span and returns its duration.
func (t *tracer) call(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// kernel is one Algorithm-1 kernel of the sequential solver, in order.
type kernel struct {
	name string
	ib   bool // an immersed-boundary kernel rather than a fluid one
	fn   func(*core.Solver)
}

var kernels = []kernel{
	{"core.bending", true, (*core.Solver).ComputeBendingForce},
	{"core.stretching", true, (*core.Solver).ComputeStretchingForce},
	{"core.elastic", true, (*core.Solver).ComputeElasticForce},
	{"core.spread", true, (*core.Solver).SpreadForce},
	{"core.collide", false, (*core.Solver).ComputeCollision},
	{"core.stream", false, (*core.Solver).StreamDistribution},
	{"core.update_velocity", false, (*core.Solver).UpdateVelocity},
	{"core.move_fibers", true, (*core.Solver).MoveFibers},
	{"core.copy", false, (*core.Solver).CopyDistribution},
}

// minTracedSteps is the fewest traced sequential steps a traced run
// takes, whatever its budget.
const minTracedSteps = 5

// traced is the per-layer run. It times calls into each layer's public
// functions from outside, keeping every call as a span, and writes the
// spans to spansPath when it ends.
func (b *bench) traced(budget time.Duration, h host, spansPath string) (result, error) {
	lg := newLedger(b.log)
	tr := newTracer()
	// The traced steps stop at three quarters of the budget, leaving the
	// rest for the fixed-size layer measurements that follow them.
	deadline := time.Now().Add(budget * 3 / 4)
	root := tr.begin("trace", 0)
	base := b.w.base(b.seed)
	n := nodes(base)

	// One untraced leg per engine: set-up time, the MLUPS the roofline
	// fraction is taken from, and the correctness check.
	var ref *state
	for _, e := range engines {
		var l leg
		tr.call("lbmib.leg."+e.name, root, func() { l = runLeg(e, b.legConfig(e), b.w, ref) })
		lg.set("lbmib.new.ms."+e.name, l.newSec*1e3, "ms")
		if !lg.count(l) {
			if ref == nil {
				return lg.result(), nil
			}
			continue
		}
		if ref == nil {
			ref = &l.final
		}
		bytesPerNode := bytesPerNodeF64
		if e.float32 {
			bytesPerNode = bytesPerNodeF32
		}
		lg.set("mem.roofline_frac."+e.name, l.mlups*1e6*bytesPerNode/(h.CopyGBps*1e9), "ratio")
	}

	// The facade's own contention rollup, at the benchmark's threads.
	for _, e := range []struct{ eng, prefix string }{
		{"omp", "omp"}, {"cube", "cubesolver"}, {"fused", "fused"},
	} {
		eng := engineNamed(e.eng)
		cfg := b.legConfig(eng)
		cfg.Contention = true
		var l leg
		tr.call("lbmib.contention."+e.eng, root, func() { l = runLeg(eng, cfg, b.w, ref) })
		if lg.count(l) {
			lg.set(e.prefix+".barrier_wait_share", l.contention.BarrierWaitShare, "ratio")
			lg.set(e.prefix+".imbalance_ratio", l.contention.ImbalanceRatio, "ratio")
		}
	}

	// Algorithm 1 on the sequential core solver, one span per kernel call.
	cs, err := core.NewSolver(coreConfig(base))
	if err != nil {
		return result{}, err
	}
	cs.Run(warmSteps)
	per := make([][]float64, len(kernels))
	var stepSec, untracedSec []float64
	var ibSec, fluidSec, totalSec float64
	for i := 0; i < minTracedSteps || time.Now().Before(deadline); i++ {
		step := tr.begin("core.step", root)
		for k, kn := range kernels {
			d := tr.call(kn.name, step, func() { kn.fn(cs) }).Seconds()
			per[k] = append(per[k], d)
			if kn.ib {
				ibSec += d
			} else {
				fluidSec += d
			}
		}
		cs.AdvanceStep()
		d := tr.end(step).Seconds()
		stepSec = append(stepSec, d)
		totalSec += d
		// The same solver's own untraced step, alternating with the traced
		// one, is what the tracing overhead is measured against.
		untracedSec = append(untracedSec, tr.call("core.step.untraced", root, cs.Step).Seconds())
	}
	fibers := float64(max(fiberNodes(base), 1))
	for k, kn := range kernels {
		m := median(per[k])
		switch {
		case kn.name == "core.spread":
			lg.set("core.spread.ms_per_step", m*1e3, "ms")
		case kn.ib:
			lg.set(kn.name+".ns_per_fiber_node", m*1e9/fibers, "ns")
		default:
			lg.set(kn.name+".ns_per_node", m*1e9/n, "ns")
		}
	}
	lg.set("core.ib.share", ibSec/totalSec, "ratio")
	lg.set("core.fluid.share", fluidSec/totalSec, "ratio")
	lg.set("trace.overhead_share", median(stepSec)/median(untracedSec)-1, "ratio")

	b.latticeLayer(tr, root, lg, cs.Fluid, cs.Tau)
	b.parLayer(tr, root, lg)
	lg.count(leg{engine: "cube-layout", err: b.layoutLayer(tr, root, lg, cs.Fluid)})
	b.checkpointLayer(tr, root, lg, base)
	lg.set("mem.bytes_per_node.f64", bytesPerNodeF64, "B")
	lg.set("mem.bytes_per_node.f32", bytesPerNodeF32, "B")
	lg.set("host.copy_gbps", h.CopyGBps, "GB/s")
	tr.end(root)
	if err := tr.write(spansPath); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	return lg.result(), nil
}

// Bytes each fluid node's arrays hold, computed from their sizes, not
// measured: two distribution buffers plus velocity, density and force.
// An engine sweeping every array once per step moves at least this much
// per node update; cache misses and write-allocate traffic come on top.
const (
	bytesPerNodeF64 = float64(unsafe.Sizeof(grid.Node{}))
	bytesPerNodeF32 = bytesPerNodeF64 - 2*lattice.Q*4
)

func engineNamed(name string) engine {
	for _, e := range engines {
		if e.name == name {
			return e
		}
	}
	panic("perfbench: no engine " + name)
}

// coreConfig is the sequential core solver's form of cfg.
func coreConfig(cfg lbmib.Config) core.Config {
	bc := func(b lbmib.Boundary) core.BC {
		if b == lbmib.NoSlip {
			return core.BounceBack
		}
		return core.Periodic
	}
	cc := core.Config{
		NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ, Tau: cfg.Tau, BodyForce: cfg.BodyForce,
		BCX: bc(cfg.BoundaryX), BCY: bc(cfg.BoundaryY), BCZ: bc(cfg.BoundaryZ),
	}
	for _, sc := range cfg.Sheets {
		cc.Sheets = append(cc.Sheets, fiber.NewSheet(fiber.Params{
			NumFibers: sc.NumFibers, NodesPerFiber: sc.NodesPerFiber,
			Width: sc.Width, Height: sc.Height, Origin: sc.Origin, Ks: sc.Ks, Kb: sc.Kb,
		}))
	}
	return cc
}

// latticeRepeats is how many batched passes over the node states each
// lattice function gets; the median pass is reported.
const latticeRepeats = 5

// latticeLayer times the D3Q19 functions collide and update-velocity
// call, batched over the workload's node states.
func (b *bench) latticeLayer(tr *tracer, root int, lg *ledger, g *grid.Grid, tau float64) {
	parent := tr.begin("lattice", root)
	var sink float64
	var geq, f [lattice.Q]float64
	var u [3]float64
	cur := g.Cur()
	fns := []struct {
		name string
		fn   func(n *grid.Node)
	}{
		{"lattice.equilibrium", func(n *grid.Node) { lattice.Equilibrium(n.Rho, n.Vel, &geq); sink += geq[0] }},
		{"lattice.guo_force", func(n *grid.Node) { lattice.GuoForce(tau, n.Vel, n.Force, &f); sink += f[1] }},
		{"lattice.moments", func(n *grid.Node) { sink += lattice.Moments(n.Buf(cur), n.Force, &u) }},
	}
	for _, c := range fns {
		var per []float64
		for r := 0; r < latticeRepeats; r++ {
			d := tr.call(c.name, parent, func() {
				for i := range g.Nodes {
					c.fn(&g.Nodes[i])
				}
			})
			per = append(per, float64(d.Nanoseconds())/float64(len(g.Nodes)))
		}
		lg.set(c.name+".ns", median(per), "ns")
	}
	tr.end(parent)
	latticeSink = sink
}

// latticeSink keeps the lattice calls' results observable, so the
// compiler cannot drop the timed work.
var latticeSink float64

// parLayer times a barrier crossing and an empty parallel region of a
// team at the benchmark's threads.
func (b *bench) parLayer(tr *tracer, root int, lg *ledger) {
	const crossings, regions, repeats = 2000, 2000, 5
	parent := tr.begin("par", root)
	team := par.NewTeam(b.threads)
	defer team.Close()
	bar := par.NewBarrier(b.threads)
	var cross, empty []float64
	for r := 0; r < repeats; r++ {
		d := tr.call("par.barrier", parent, func() {
			team.Run(func(int) {
				for i := 0; i < crossings; i++ {
					bar.Wait()
				}
			})
		})
		cross = append(cross, float64(d.Nanoseconds())/crossings)
		d = tr.call("par.team_run", parent, func() {
			for i := 0; i < regions; i++ {
				team.Run(func(int) {})
			}
		})
		empty = append(empty, float64(d.Nanoseconds())/regions)
	}
	lg.set("par.barrier.ns_per_crossing", median(cross), "ns")
	lg.set("par.team_run.ns", median(empty), "ns")
	tr.end(parent)
}

// layoutLayer times the slab↔cube conversions and the digest scan the
// flight recorder and snapshots use, per fluid node. The slab→cube→slab
// round trip must be exact, or the operation fails.
func (b *bench) layoutLayer(tr *tracer, root int, lg *ledger, g *grid.Grid) error {
	const repeats = 3
	parent := tr.begin("layout", root)
	defer tr.end(parent)
	l, err := cube.NewLayout(g.NX, g.NY, g.NZ, cubeSize)
	if err != nil {
		return err
	}
	dg, err := grid.NewDigestGrid(g.NX, g.NY, g.NZ, cubeSize)
	if err != nil {
		return err
	}
	n := float64(len(g.Nodes))
	var from, to, dig []float64
	for r := 0; r < repeats; r++ {
		var ferr, derr error
		from = append(from, float64(tr.call("cube.from_grid", parent, func() { ferr = l.FromGrid(g) }).Nanoseconds())/n)
		var back *grid.Grid
		to = append(to, float64(tr.call("cube.to_grid", parent, func() { back = l.ToGrid() }).Nanoseconds())/n)
		dig = append(dig, float64(tr.call("grid.digest", parent, func() { derr = g.Digest(dg) }).Nanoseconds())/n)
		if ferr != nil || derr != nil {
			return fmt.Errorf("layout layer: %v, %v", ferr, derr)
		}
		if d, err := validate.Grids(back, g); err != nil || !within(d, 0) {
			return fmt.Errorf("cube layout round trip is not exact: %v %v", d, err)
		}
	}
	lg.set("cube.from_grid.ns_per_node", median(from), "ns")
	lg.set("cube.to_grid.ns_per_node", median(to), "ns")
	lg.set("grid.digest.ns_per_node", median(dig), "ns")
	return nil
}

// checkpointLayer checkpoints a stepped sequential simulation into
// memory and restores it; the restored state must equal the original
// bitwise, or the operation fails.
func (b *bench) checkpointLayer(tr *tracer, root int, lg *ledger, base lbmib.Config) {
	parent := tr.begin("lbmib.checkpoint_leg", root)
	defer tr.end(parent)
	l := leg{engine: "checkpoint"}
	defer func() { lg.count(l) }()
	sim, err := lbmib.New(base)
	if err != nil {
		l.err = err
		return
	}
	defer sim.Close()
	sim.Run(warmSteps + b.w.steps)
	var buf bytes.Buffer
	d := tr.call("lbmib.checkpoint", parent, func() { err = sim.Checkpoint(&buf) })
	if err != nil {
		l.err = err
		return
	}
	lg.set("lbmib.checkpoint.ms", d.Seconds()*1e3, "ms")
	lg.set("lbmib.checkpoint.bytes", float64(buf.Len()), "B")
	var restored *lbmib.Simulation
	d = tr.call("lbmib.restore", parent, func() { restored, err = lbmib.Restore(bytes.NewReader(buf.Bytes()), base) })
	if err != nil {
		l.err = err
		return
	}
	defer restored.Close()
	lg.set("lbmib.restore.ms", d.Seconds()*1e3, "ms")
	want, err := capture(sim)
	if err != nil {
		l.err = err
		return
	}
	got, err := capture(restored)
	if err != nil {
		l.err = err
		return
	}
	l.err = check(got, want, contract{massRel: massRelTol}, want.fluid.TotalMass())
}
