package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// manifest is the part of BENCHMARK.json the tests hold the program to.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func testThreads() int { return min(2, runtime.NumCPU()) }

func tinyBench(t *testing.T, name string) *bench {
	t.Helper()
	w, err := newWorkload(name, true)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{w: w, seed: 7, threads: testThreads(), recDir: t.TempDir(), log: io.Discard}
}

// checkMetrics asserts res passed and reports exactly the named metrics,
// each with its manifest unit and a finite value.
func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, manifest names %d", len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, manifest says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func TestManifestWorkloads(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("manifest workloads %v, program runs %v", names, workloadNames)
	}
}

// TestTinyWorkloads runs a tiny-size pass of every workload, timed and
// traced, and checks every named metric arrives with its unit and a
// finite value, and that the traced run's spans nest.
func TestTinyWorkloads(t *testing.T) {
	m := readManifest(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b := tinyBench(t, name)
			checkMetrics(t, b.timed(time.Millisecond), m.EndToEnd)
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err := b.traced(time.Millisecond, host{CopyGBps: 10}, spans)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, m.PerLayer)
			checkSpans(t, spans)
		})
	}
}

// checkSpans asserts every span lies inside its parent and the children
// of each span together take no longer than it.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	childSum := map[int]int64{}
	steps := 0
	for _, s := range spans {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Name == "core.step" {
			steps++
		}
	}
	if steps < minTracedSteps {
		t.Errorf("%d traced steps, want at least %d", steps, minTracedSteps)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %s has no parent %d", s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%d,%d] outside parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		childSum[s.Parent] += s.End - s.Start
	}
	for id, sum := range childSum {
		if p := byID[id]; sum > p.End-p.Start {
			t.Errorf("children of %s take %d ns, longer than its %d ns", p.Name, sum, p.End-p.Start)
		}
	}
}

// TestPerturbedStateFails feeds deliberately perturbed copies of a
// reference state to the correctness check; each must count as a failed
// operation under the contract it breaks.
func TestPerturbedStateFails(t *testing.T) {
	b := tinyBench(t, "sheet")
	seq := engineNamed("seq")
	ref := runLeg(seq, b.legConfig(seq), b.w, nil)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	m0 := ref.final.fluid.TotalMass()
	bitwise := contract{massRel: massRelTol}
	tolerant := contract{tol: 1e-9, massRel: massRelTol}
	perturbed := func(edit func(st state)) state {
		st := state{fluid: ref.final.fluid.Clone()}
		for _, sh := range ref.final.sheets {
			st.sheets = append(st.sheets, sh.Clone())
		}
		edit(st)
		return st
	}
	df := func(delta float64) func(st state) {
		return func(st state) {
			g := st.fluid
			g.Nodes[len(g.Nodes)/2].Buf(g.Cur())[3] += delta
		}
	}
	cases := []struct {
		name string
		st   state
		c    contract
	}{
		{"one ulp-scale distribution change, bitwise", perturbed(df(1e-15)), bitwise},
		{"distribution change above tolerance", perturbed(df(1e-6)), tolerant},
		{"non-finite velocity", perturbed(func(st state) { st.fluid.Nodes[5].Vel[1] = math.NaN() }), tolerant},
		{"moved fiber node", perturbed(func(st state) { st.sheets[0].X[3][2] += 1e-6 }), tolerant},
		{"mass drift", perturbed(func(st state) {
			g := st.fluid
			for i := range g.Nodes {
				g.Nodes[i].Buf(g.Cur())[0] += 1e-7
			}
		}), contract{tol: 1, massRel: massRelTol}},
	}
	if err := check(perturbed(func(state) {}), ref.final, bitwise, m0); err != nil {
		t.Fatalf("unperturbed copy fails: %v", err)
	}
	for _, c := range cases {
		lg := newLedger(io.Discard)
		lg.count(leg{engine: c.name, err: check(c.st, ref.final, c.c, m0)})
		if res := lg.result(); res.Failed != 1 || res.Correct {
			t.Errorf("%s: failed=%d correct=%v, want one failed operation", c.name, res.Failed, res.Correct)
		}
	}
}

// TestRefusesBadRuns checks that oversubscription and unknown workloads
// are refused with a nonzero exit and no result line.
func TestRefusesBadRuns(t *testing.T) {
	for _, args := range [][]string{
		{"--threads", strconv.Itoa(runtime.NumCPU() + 1)},
		{"--threads", "0"},
		{"--workload", "no-such-workload"},
		{"--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a refusal", args, code, out.String())
		}
	}
}
