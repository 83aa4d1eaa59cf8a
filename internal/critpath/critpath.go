// Package critpath is the critical-path profiler: an always-on,
// bounded-overhead layer over the existing barrier and phase
// instrumentation that answers the question the per-site wait gauges
// (PR 4) cannot — not just *where* threads wait, but *who made them
// wait and why*, and what fixing it would buy.
//
// # What it records
//
// Three bounded data structures, all preallocated, all updated with
// atomics or uncontended per-slot mutexes (no allocation after
// construction, no global lock):
//
//   - per-(site, thread) barrier-arrival accumulators: summed waits and
//     how often each thread was the *last arriver* — the thread that
//     released each crossing, taken from par.Barrier.WaitRank via the
//     engines' BarrierArrivalObserver;
//   - a per-thread phase-slice timeline ring (telemetry.Timeline) with
//     begin/end stamps per kernel phase, flight-recorder style;
//   - a step ring folding each step's per-phase critical time (the
//     slowest thread's slice) into cumulative totals as slots recycle,
//     plus a crossing ring remembering who released each recent
//     barrier crossing (the last-arriver chain).
//
// # Wait-cause classification
//
// Per barrier site, over the whole run:
//
//   - persistent_straggler — the same thread is the last arriver in at
//     least half the crossings: pin it, fix it, or feed it less work;
//   - data_imbalance — the last arriver rotates with cube/plane
//     ownership and the per-step busy imbalance of the correlated
//     phase (Σ max / Σ mean, which catches rotation that cumulative
//     ratios average away) exceeds the threshold: redistribute work;
//   - barrier_topology — arrivals are near-uniform (mean wait per
//     waiter per crossing under ~10µs): the wait *is* the barrier, and
//     only restructuring the synchronization (fewer sites,
//     neighborhood-scoped sync) helps.
//
// # What-if estimation
//
// The measured per-phase per-thread busy times feed perfsim.WhatIf,
// which predicts the step time under perfect balance, with adjacent
// barrier sites merged, or with more threads — a ranked list of
// predicted MLUPS gains that tells the next PR which fix pays.
package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/cubesolver"
	"lbmib/internal/fusereport"
	"lbmib/internal/perfsim"
	"lbmib/internal/telemetry"
)

// Schema identifies the JSON report format.
const Schema = "lbmib-critpath/v1"

// Wait-cause classes (see the package doc).
const (
	CauseNone      = "none"
	CauseStraggler = "persistent_straggler"
	CauseImbalance = "data_imbalance"
	CauseTopology  = "barrier_topology"
)

// Classifier thresholds. Exported so the report renderer and the tests
// pin the same contract the docs describe.
const (
	// StragglerShare is the fraction of crossings one thread must
	// release to be called a persistent straggler.
	StragglerShare = 0.5
	// ImbalanceRatio is the per-step Σmax/Σmean busy ratio of the
	// correlated phase above which rotation is blamed on data imbalance.
	ImbalanceRatio = 1.05
	// TopologyWait is the mean wait per waiter per crossing below which
	// a site's waits are classified as barrier-topology overhead.
	TopologyWait = 10 * time.Microsecond
)

// flowCutoff bounds trace flow-event volume: only waits at least this
// long get an arrow from the last arriver.
const flowCutoff = 100 * time.Microsecond

// Config configures a Profiler.
type Config struct {
	// Engine names the engine for metric labels and selects the
	// site/phase vocabulary: "omp" profiles the nine parallel regions
	// (implicit join barriers); everything else profiles the cube-style
	// phase/site vocabulary ("fused"/"fused-f32" remap end_of_step to
	// the sweep's region B).
	Engine string
	// Threads is the worker count; out-of-range tids are dropped.
	Threads int
	// Window is the step/crossing ring depth (default 64).
	Window int
	// Tracer, when non-nil, receives Chrome-trace flow events linking
	// each barrier release's last arriver to the threads it kept
	// waiting.
	Tracer *telemetry.Tracer
}

// Profiler accumulates critical-path attribution. It implements
// cubesolver.PhaseObserver, cubesolver.BarrierArrivalObserver, and
// omp.RegionObserver; all methods are safe for concurrent use from all
// worker threads.
type Profiler struct {
	engine  string
	threads int
	window  int
	tracer  *telemetry.Tracer
	regions bool // omp vocabulary (kernels as segments and sites)

	segNames  []string // segment vocabulary; index 0 unused
	siteNames []string
	siteSeg   []int // site → segment whose imbalance explains its waits

	timeline *telemetry.Timeline

	// Barrier-arrival accumulators, index site*threads+tid.
	waitNanos []atomic.Int64
	lastTotal []atomic.Int64
	arrivals  []atomic.Int64
	crossings []atomic.Int64 // per site
	maxWait   []atomic.Int64 // per site, largest single wait

	// Per-(segment, thread) busy accumulators, index seg*threads+tid.
	busyNanos []atomic.Int64

	curStep atomic.Int64

	// Step ring: per-step per-segment critical/summed slice times,
	// folded into the cumulative totals below when a slot recycles.
	slots []stepSlot

	// Crossing ring: who released each recent barrier crossing.
	chain []chainSlot

	foldMu      sync.Mutex
	foldedSteps int64
	foldedCrit  []int64 // per segment, nanos
	foldedSum   []int64 // per segment, nanos

	synthCrossing atomic.Uint64 // crossing ids for region-mode sites
}

type stepSlot struct {
	mu     sync.Mutex
	step   int // -1 = empty
	segMax []int64
	segSum []int64
	segTid []int32
}

type chainSlot struct {
	mu       sync.Mutex
	crossing uint64 // +1; 0 = empty
	site     int32
	step     int32
	lastTid  int32 // -1 until the last arriver stamps it
	maxWait  int64
}

// New creates a Profiler for the given engine.
func New(cfg Config) *Profiler {
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	window := cfg.Window
	if window < 1 {
		window = 64
	}
	p := &Profiler{
		engine:  cfg.Engine,
		threads: threads,
		window:  window,
		tracer:  cfg.Tracer,
	}
	switch cfg.Engine {
	case "omp":
		p.regions = true
		p.segNames = make([]string, core.NumKernels+1)
		for k := core.Kernel(1); k <= core.NumKernels; k++ {
			p.segNames[k] = k.String()
		}
		// Each parallel region ends in an implicit join barrier; the
		// region *is* the site, and its own busy vector explains it.
		p.siteNames = make([]string, core.NumKernels)
		p.siteSeg = make([]int, core.NumKernels)
		for k := 1; k <= core.NumKernels; k++ {
			p.siteNames[k-1] = "region_" + core.Kernel(k).String()
			p.siteSeg[k-1] = k
		}
	default:
		p.segNames = make([]string, cubesolver.NumPhases+1)
		for ph := cubesolver.Phase(1); ph <= cubesolver.NumPhases; ph++ {
			p.segNames[ph] = ph.String()
		}
		p.siteNames = make([]string, cubesolver.NumBarrierSites)
		p.siteSeg = make([]int, cubesolver.NumBarrierSites)
		for si := cubesolver.BarrierSite(0); si < cubesolver.NumBarrierSites; si++ {
			p.siteNames[si] = si.String()
			p.siteSeg[si] = int(precedingPhase(si))
		}
		if strings.HasPrefix(cfg.Engine, "fused") {
			// The fused sweep's end-of-step barrier follows region B
			// (reported as PhaseUpdateVelocity), not a copy loop.
			p.siteSeg[cubesolver.SiteEndOfStep] = int(cubesolver.PhaseUpdateVelocity)
		}
	}
	nsites, nsegs := len(p.siteNames), len(p.segNames)
	p.waitNanos = make([]atomic.Int64, nsites*threads)
	p.lastTotal = make([]atomic.Int64, nsites*threads)
	p.arrivals = make([]atomic.Int64, nsites*threads)
	p.crossings = make([]atomic.Int64, nsites)
	p.maxWait = make([]atomic.Int64, nsites)
	p.busyNanos = make([]atomic.Int64, nsegs*threads)
	p.timeline = telemetry.NewTimeline(threads, window*nsegs)
	p.slots = make([]stepSlot, window)
	for i := range p.slots {
		p.slots[i] = stepSlot{
			step:   -1,
			segMax: make([]int64, nsegs),
			segSum: make([]int64, nsegs),
			segTid: make([]int32, nsegs),
		}
	}
	p.chain = make([]chainSlot, window*maxInt(nsites, 1))
	p.foldedCrit = make([]int64, nsegs)
	p.foldedSum = make([]int64, nsegs)
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// precedingPhase maps a cube-engine barrier site to the phase whose
// completion the site orders — the phase whose slow thread is the
// site's last arriver.
func precedingPhase(site cubesolver.BarrierSite) cubesolver.Phase {
	switch site {
	case cubesolver.SiteAfterSpread:
		return cubesolver.PhaseFibersForce
	case cubesolver.SiteAfterCollide, cubesolver.SiteAfterStream:
		return cubesolver.PhaseCollideStream
	case cubesolver.SiteAfterVelocity:
		return cubesolver.PhaseUpdateVelocity
	case cubesolver.SiteAfterMove:
		return cubesolver.PhaseMoveFibers
	default:
		return cubesolver.PhaseCopy
	}
}

// Engine returns the engine label the profiler publishes under.
func (p *Profiler) Engine() string { return p.engine }

// Timeline returns the per-thread phase-slice ring.
func (p *Profiler) Timeline() *telemetry.Timeline { return p.timeline }

// PhaseDone implements cubesolver.PhaseObserver: one thread finished
// one kernel phase of one step.
func (p *Profiler) PhaseDone(step, tid int, ph cubesolver.Phase, d time.Duration) {
	seg := int(ph)
	if p.regions || seg < 1 || seg >= len(p.segNames) || tid < 0 || tid >= p.threads {
		return
	}
	p.segmentDone(step, tid, seg, d)
}

// RegionDone implements omp.RegionObserver: the coordinating goroutine
// reports every thread's busy time for one parallel region. The
// region's implicit join is a barrier in all but name, so the busy
// vector yields both the slices and a synthesized arrival record: the
// busiest thread is the last arriver, and each thread's wait is the gap
// to it.
func (p *Profiler) RegionDone(step int, k core.Kernel, busy []time.Duration) {
	seg := int(k)
	if !p.regions || seg < 1 || seg >= len(p.segNames) {
		return
	}
	var max time.Duration
	arg := 0
	for tid, d := range busy {
		if tid >= p.threads {
			break
		}
		p.segmentDone(step, tid, seg, d)
		if d > max {
			max, arg = d, tid
		}
	}
	site := seg - 1
	crossing := p.synthCrossing.Add(1) - 1
	for tid, d := range busy {
		if tid >= p.threads {
			break
		}
		p.siteArrive(site, tid, crossing, max-d, tid == arg)
	}
}

// BarrierArrive implements cubesolver.BarrierArrivalObserver.
func (p *Profiler) BarrierArrive(site cubesolver.BarrierSite, tid, rank int, crossing uint64, wait time.Duration, last bool) {
	si := int(site)
	if p.regions || si < 0 || si >= len(p.siteNames) || tid < 0 || tid >= p.threads {
		return
	}
	p.siteArrive(si, tid, crossing, wait, last)
}

func (p *Profiler) segmentDone(step, tid, seg int, d time.Duration) {
	p.busyNanos[seg*p.threads+tid].Add(int64(d))
	p.timeline.RecordDone(tid, step, seg, d)
	for {
		cur := p.curStep.Load()
		if int64(step) <= cur || p.curStep.CompareAndSwap(cur, int64(step)) {
			break
		}
	}
	s := &p.slots[step%p.window]
	s.mu.Lock()
	if s.step != step {
		p.foldSlot(s)
		s.step = step
		for i := range s.segMax {
			s.segMax[i], s.segSum[i], s.segTid[i] = 0, 0, 0
		}
	}
	if int64(d) > s.segMax[seg] {
		s.segMax[seg] = int64(d)
		s.segTid[seg] = int32(tid)
	}
	s.segSum[seg] += int64(d)
	s.mu.Unlock()
}

// foldSlot retires a recycled step slot into the cumulative totals.
// Caller holds s.mu.
func (p *Profiler) foldSlot(s *stepSlot) {
	if s.step < 0 {
		return
	}
	p.foldMu.Lock()
	p.foldedSteps++
	for seg := range s.segMax {
		p.foldedCrit[seg] += s.segMax[seg]
		p.foldedSum[seg] += s.segSum[seg] / int64(p.threads)
	}
	p.foldMu.Unlock()
}

func (p *Profiler) siteArrive(site, tid int, crossing uint64, wait time.Duration, last bool) {
	i := site*p.threads + tid
	p.waitNanos[i].Add(int64(wait))
	p.arrivals[i].Add(1)
	if last {
		p.lastTotal[i].Add(1)
		p.crossings[site].Add(1)
	}
	for {
		cur := p.maxWait[site].Load()
		if int64(wait) <= cur || p.maxWait[site].CompareAndSwap(cur, int64(wait)) {
			break
		}
	}
	c := &p.chain[crossing%uint64(len(p.chain))]
	c.mu.Lock()
	if c.crossing != crossing+1 {
		c.crossing = crossing + 1
		c.site = int32(site)
		c.step = int32(p.curStep.Load())
		c.lastTid = -1
		c.maxWait = 0
	}
	if int64(wait) > c.maxWait {
		c.maxWait = int64(wait)
	}
	if last {
		c.lastTid = int32(tid)
		c.step = int32(p.curStep.Load())
	}
	c.mu.Unlock()
	if p.tracer != nil {
		if last {
			p.tracer.FlowStart(crossing, tid, "last:"+p.siteNames[site])
		} else if wait >= flowCutoff {
			p.tracer.FlowEnd(crossing, tid, "last:"+p.siteNames[site])
		}
	}
}

// SiteReport is one barrier site's attribution and classification.
type SiteReport struct {
	Site string `json:"site"`
	// Crossings counts instrumented releases of this site.
	Crossings int64 `json:"crossings"`
	// LastArrivals[t] counts how often thread t released the site.
	LastArrivals []int64 `json:"lastArrivals"`
	// DominantTid released the most crossings (share of the total in
	// DominantShare).
	DominantTid   int     `json:"dominantTid"`
	DominantShare float64 `json:"dominantShare"`
	// WaitSeconds sums every thread's waits at this site.
	WaitSeconds float64 `json:"waitSeconds"`
	// MaxWaitSeconds is the largest single wait observed.
	MaxWaitSeconds float64 `json:"maxWaitSeconds"`
	// Phase is the segment whose completion this site orders, and
	// PhaseImbalance its per-step Σmax/Σmean busy ratio.
	Phase          string  `json:"phase"`
	PhaseImbalance float64 `json:"phaseImbalance"`
	// Cause is the classified dominant wait cause (Cause* constants).
	Cause string `json:"cause"`
}

// PhaseReport is one segment's (kernel phase's) critical-path share.
type PhaseReport struct {
	Phase string `json:"phase"`
	// CriticalSeconds is Σ over steps of the slowest thread's slice —
	// the phase's contribution to the run's critical path.
	CriticalSeconds float64 `json:"criticalSeconds"`
	// MeanSeconds is Σ over steps of the mean thread slice; the ratio
	// Critical/Mean is the per-step imbalance (1 = perfectly balanced).
	MeanSeconds    float64 `json:"meanSeconds"`
	ImbalanceRatio float64 `json:"imbalanceRatio"`
	// BusySeconds[t] is thread t's total busy time in this phase.
	BusySeconds []float64 `json:"busySeconds"`
}

// ChainLink is one barrier release in a step's last-arriver chain.
type ChainLink struct {
	Site string `json:"site"`
	// Tid is the last arriver — the thread that released the crossing.
	Tid int `json:"tid"`
	// MaxWaitMicros is the longest any other thread waited for it.
	MaxWaitMicros float64 `json:"maxWaitMicros"`
	// SliceMicros is the last arriver's preceding phase-slice duration
	// from the timeline ring, when still resident (0 otherwise).
	SliceMicros float64 `json:"sliceMicros,omitempty"`
}

// StepChain is one step's reconstructed critical path: the ordered
// barrier releases and who caused each.
type StepChain struct {
	Step  int         `json:"step"`
	Links []ChainLink `json:"links"`
}

// Report is the profiler's full output.
type Report struct {
	Schema  string `json:"schema"`
	Engine  string `json:"engine"`
	Threads int    `json:"threads"`
	// Steps counts time steps with critical-path samples.
	Steps  int64                    `json:"steps"`
	Sites  []SiteReport             `json:"sites"`
	Phases []PhaseReport            `json:"phases"`
	Chains []StepChain              `json:"chains,omitempty"`
	WhatIf []perfsim.WhatIfScenario `json:"whatIf,omitempty"`
}

// Report assembles the current attribution state. Safe to call
// concurrently with recording; it reads a consistent-enough snapshot
// for profiling purposes.
//lint:allow hotalloc -- report assembly runs once per run, not per step; reachable from Step only through observer registration
func (p *Profiler) Report() Report {
	nsegs := len(p.segNames)
	crit := make([]int64, nsegs)
	sum := make([]int64, nsegs)
	p.foldMu.Lock()
	steps := p.foldedSteps
	copy(crit, p.foldedCrit)
	copy(sum, p.foldedSum)
	p.foldMu.Unlock()
	// Live (unfolded) ring slots count too.
	for i := range p.slots {
		s := &p.slots[i]
		s.mu.Lock()
		if s.step >= 0 {
			steps++
			for seg := range s.segMax {
				crit[seg] += s.segMax[seg]
				sum[seg] += s.segSum[seg] / int64(p.threads)
			}
		}
		s.mu.Unlock()
	}

	r := Report{Schema: Schema, Engine: p.engine, Threads: p.threads, Steps: steps}
	for seg := 1; seg < nsegs; seg++ {
		pr := PhaseReport{
			Phase:           p.segNames[seg],
			CriticalSeconds: float64(crit[seg]) / 1e9,
			MeanSeconds:     float64(sum[seg]) / 1e9,
			BusySeconds:     make([]float64, p.threads),
		}
		if sum[seg] > 0 {
			pr.ImbalanceRatio = float64(crit[seg]) / float64(sum[seg])
		}
		for tid := 0; tid < p.threads; tid++ {
			pr.BusySeconds[tid] = float64(p.busyNanos[seg*p.threads+tid].Load()) / 1e9
		}
		r.Phases = append(r.Phases, pr)
	}
	imbal := make(map[string]float64, len(r.Phases))
	for _, pr := range r.Phases {
		imbal[pr.Phase] = pr.ImbalanceRatio
	}

	for si := range p.siteNames {
		sr := SiteReport{
			Site:           p.siteNames[si],
			Crossings:      p.crossings[si].Load(),
			LastArrivals:   make([]int64, p.threads),
			MaxWaitSeconds: float64(p.maxWait[si].Load()) / 1e9,
			Phase:          p.segNames[p.siteSeg[si]],
		}
		var wait, best int64
		for tid := 0; tid < p.threads; tid++ {
			la := p.lastTotal[si*p.threads+tid].Load()
			sr.LastArrivals[tid] = la
			wait += p.waitNanos[si*p.threads+tid].Load()
			if la > best {
				best = la
				sr.DominantTid = tid
			}
		}
		sr.WaitSeconds = float64(wait) / 1e9
		if sr.Crossings > 0 {
			sr.DominantShare = float64(best) / float64(sr.Crossings)
		}
		sr.PhaseImbalance = imbal[sr.Phase]
		sr.Cause = p.classify(sr)
		if sr.Crossings > 0 || sr.WaitSeconds > 0 {
			r.Sites = append(r.Sites, sr)
		}
	}

	r.Chains = p.chains()
	return r
}

// classify applies the wait-cause thresholds (see the package doc).
func (p *Profiler) classify(sr SiteReport) string {
	if sr.Crossings == 0 || p.threads < 2 {
		return CauseNone
	}
	meanWait := sr.WaitSeconds / float64(sr.Crossings) / float64(p.threads-1)
	if meanWait < TopologyWait.Seconds() {
		return CauseTopology
	}
	if sr.DominantShare >= StragglerShare {
		return CauseStraggler
	}
	if sr.PhaseImbalance >= ImbalanceRatio {
		return CauseImbalance
	}
	return CauseTopology
}

// chains reconstructs the most recent steps' last-arriver chains from
// the crossing ring, oldest step first, sites in release order.
//lint:allow hotalloc -- chain reconstruction runs once per report, not per step
func (p *Profiler) chains() []StepChain {
	type link struct {
		crossing uint64
		site     int32
		tid      int32
		maxWait  int64
	}
	byStep := map[int32][]link{}
	for i := range p.chain {
		c := &p.chain[i]
		c.mu.Lock()
		if c.crossing != 0 && c.lastTid >= 0 {
			byStep[c.step] = append(byStep[c.step], link{c.crossing - 1, c.site, c.lastTid, c.maxWait})
		}
		c.mu.Unlock()
	}
	steps := make([]int32, 0, len(byStep))
	for st := range byStep {
		steps = append(steps, st)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	const maxChains = 8
	if len(steps) > maxChains {
		steps = steps[len(steps)-maxChains:]
	}
	out := make([]StepChain, 0, len(steps))
	for _, st := range steps {
		links := byStep[st]
		sort.Slice(links, func(i, j int) bool { return links[i].crossing < links[j].crossing })
		sc := StepChain{Step: int(st)}
		for _, l := range links {
			cl := ChainLink{
				Site:          p.siteNames[l.site],
				Tid:           int(l.tid),
				MaxWaitMicros: float64(l.maxWait) / 1e3,
			}
			if ts, ok := p.timeline.Lookup(int(l.tid), int(st), p.siteSeg[l.site]); ok {
				cl.SliceMicros = float64(ts.End-ts.Start) / 1e3
			}
			sc.Links = append(sc.Links, cl)
		}
		out = append(out, sc)
	}
	return out
}

// StepRecord summarizes one step for the steplog: the phase that
// dominated the step's critical path, the thread that was slowest in
// it, and the step's total critical seconds. ok is false when the step
// has left the ring (or never recorded).
func (p *Profiler) StepRecord(step int) (telemetry.CritPathStep, bool) {
	s := &p.slots[step%p.window]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.step != step {
		return telemetry.CritPathStep{}, false
	}
	best := 0
	var total int64
	for seg := 1; seg < len(s.segMax); seg++ {
		total += s.segMax[seg]
		if s.segMax[seg] > s.segMax[best] {
			best = seg
		}
	}
	if best == 0 {
		return telemetry.CritPathStep{}, false
	}
	return telemetry.CritPathStep{
		Phase:   p.segNames[best],
		Tid:     int(s.segTid[best]),
		Seconds: float64(total) / 1e9,
	}, true
}

// Publish exports the profiler's state as gauges:
// lbmib_critical_path_seconds{engine,phase} (cumulative per-phase
// critical time) and lbmib_last_arriver_total{engine,site,tid}
// (cumulative last-arriver counts). Safe to call repeatedly.
func (p *Profiler) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	eng := telemetry.L("engine", p.engine)
	r := p.Report()
	for _, pr := range r.Phases {
		if pr.CriticalSeconds == 0 {
			continue
		}
		reg.Gauge("lbmib_critical_path_seconds",
			"Cumulative critical-path (slowest-thread) seconds per kernel phase.",
			eng, telemetry.L("phase", pr.Phase)).Set(pr.CriticalSeconds)
	}
	for _, sr := range r.Sites {
		for tid, la := range sr.LastArrivals {
			if la == 0 {
				continue
			}
			reg.Gauge("lbmib_last_arriver_total",
				"How often each thread was the last arriver (releaser) at each barrier site.",
				eng, telemetry.L("site", sr.Site), telemetry.L("tid", strconv.Itoa(tid))).Set(float64(la))
		}
	}
}

// AddWhatIf fills r.WhatIf with perfsim's measurement-driven speedup
// scenarios, using the report's mean per-step phase profile. nodes is
// the lattice size (NX·NY·NZ) for MLUPS conversion.
func AddWhatIf(r *Report, nodes float64) {
	phases, syncSec := measuredProfile(r)
	r.WhatIf = perfsim.WhatIf(nodes, r.Threads, phases, syncSec)
}

// measuredProfile extracts the perfsim inputs from a report: per-phase
// per-thread busy seconds per step, and the per-crossing barrier sync
// cost estimated from the topology-classified sites.
func measuredProfile(r *Report) ([]perfsim.MeasuredPhase, float64) {
	if r.Steps == 0 {
		return nil, 0
	}
	phases := make([]perfsim.MeasuredPhase, 0, len(r.Phases))
	for _, pr := range r.Phases {
		if pr.CriticalSeconds == 0 {
			continue
		}
		busy := make([]float64, len(pr.BusySeconds))
		perStepMax := pr.CriticalSeconds / float64(r.Steps)
		// Per-thread per-step busy, rescaled so the phase's max matches
		// the measured per-step critical time (cumulative busy averages
		// away the rotation the step ring preserved).
		var maxBusy float64
		for _, b := range pr.BusySeconds {
			if b > maxBusy {
				maxBusy = b
			}
		}
		for t, b := range pr.BusySeconds {
			if maxBusy > 0 {
				busy[t] = b / maxBusy * perStepMax
			}
		}
		phases = append(phases, perfsim.MeasuredPhase{Name: pr.Phase, Busy: busy})
	}
	// Per-barrier sync cost: measured mean wait of topology-classified
	// sites, else a small default.
	var syncSec float64
	var nTopo int64
	for _, sr := range r.Sites {
		if sr.Cause == CauseTopology && sr.Crossings > 0 && r.Threads > 1 {
			syncSec += sr.WaitSeconds / float64(sr.Crossings) / float64(r.Threads-1)
			nTopo++
		}
	}
	if nTopo > 0 {
		syncSec /= float64(nTopo)
	} else {
		syncSec = 2e-6
	}
	return phases, syncSec
}

// AddWhatIfWithProofs is AddWhatIf plus static backing: the barrier-merge
// scenarios are tagged with the phase-effect analyzer's verdict from the
// engine's fusibility report (proven-safe vs unsafe-with-conflict), so
// the ranked table distinguishes merges the compiler of record has
// cleared from merges that would break the bitwise contract.
func AddWhatIfWithProofs(r *Report, nodes float64, eng *fusereport.Engine) {
	AddWhatIf(r, nodes)
	perfsim.TagProofs(r.WhatIf, eng)
}

// WriteJSON writes the report as indented JSON.
func WriteJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Validate checks a decoded report's structural invariants.
func Validate(r Report) error {
	if r.Schema != Schema {
		return fmt.Errorf("critpath: schema %q, want %q", r.Schema, Schema)
	}
	if r.Threads < 1 {
		return fmt.Errorf("critpath: threads %d", r.Threads)
	}
	for _, sr := range r.Sites {
		if len(sr.LastArrivals) != r.Threads {
			return fmt.Errorf("critpath: site %s has %d lastArrivals, want %d", sr.Site, len(sr.LastArrivals), r.Threads)
		}
		switch sr.Cause {
		case CauseNone, CauseStraggler, CauseImbalance, CauseTopology:
		default:
			return fmt.Errorf("critpath: site %s has unknown cause %q", sr.Site, sr.Cause)
		}
	}
	return nil
}

// Render formats the report as the human-readable profile lbmib-profile
// prints: per-site attribution with cause, per-phase critical path,
// recent last-arriver chains, and the ranked what-if table.
func Render(w io.Writer, r Report) {
	fmt.Fprintf(w, "critical-path profile — engine=%s threads=%d steps=%d\n\n", r.Engine, r.Threads, r.Steps)

	fmt.Fprintf(w, "%-22s %10s %8s %9s %12s %10s  %s\n",
		"barrier site", "crossings", "last=tid", "share", "wait(s)", "max(ms)", "cause")
	for _, sr := range r.Sites {
		fmt.Fprintf(w, "%-22s %10d %8d %8.0f%% %12.4f %10.3f  %s\n",
			sr.Site, sr.Crossings, sr.DominantTid, 100*sr.DominantShare,
			sr.WaitSeconds, 1e3*sr.MaxWaitSeconds, sr.Cause)
	}

	fmt.Fprintf(w, "\n%-22s %12s %12s %10s\n", "phase", "critical(s)", "mean(s)", "imbalance")
	for _, pr := range r.Phases {
		if pr.CriticalSeconds == 0 {
			continue
		}
		fmt.Fprintf(w, "%-22s %12.4f %12.4f %10.3f\n",
			pr.Phase, pr.CriticalSeconds, pr.MeanSeconds, pr.ImbalanceRatio)
	}

	if len(r.Chains) > 0 {
		fmt.Fprintf(w, "\nlast-arriver chains (most recent steps):\n")
		for _, sc := range r.Chains {
			fmt.Fprintf(w, "  step %d:", sc.Step)
			for _, l := range sc.Links {
				fmt.Fprintf(w, " %s←t%d(%.0fµs)", l.Site, l.Tid, l.MaxWaitMicros)
			}
			fmt.Fprintln(w)
		}
	}

	if len(r.WhatIf) > 0 {
		fmt.Fprintf(w, "\nwhat-if (predicted, ranked):\n")
		fmt.Fprintf(w, "  %-34s %12s %10s %9s  %s\n", "scenario", "step(ms)", "MLUPS", "speedup", "proof")
		for _, sc := range r.WhatIf {
			fmt.Fprintf(w, "  %-34s %12.3f %10.2f %8.1f%%  %s\n",
				sc.Name, 1e3*sc.StepSeconds, sc.MLUPS, sc.SpeedupPct, sc.Proof)
		}
	}
}
