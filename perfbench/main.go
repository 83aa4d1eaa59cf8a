// Command perfbench is the repository's benchmark. It runs one named
// workload closed-loop (one simulation at a time, from one process) on
// every engine, checks each engine's result against the sequential
// reference under the crosscheck contract, and prints one JSON result
// as its last line of output.
//
// Usage, from this directory:
//
//	go run . --workload sheet --seed 1 --seconds 20 --trace 0
//
// --trace 0 is the timed run that reports the end-to-end metrics;
// --trace 1 is the separate traced run that times the calls into each
// layer from outside and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lbmib"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints. An operation is one
// engine leg.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger accumulates operations and metrics while a run goes.
type ledger struct {
	res result
	log io.Writer
}

func newLedger(log io.Writer) *ledger {
	return &ledger{res: result{Metrics: map[string]metric{}}, log: log}
}

func (lg *ledger) set(name string, v float64, unit string) {
	lg.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// count records one leg and reports whether it passed.
func (lg *ledger) count(l leg) bool {
	lg.res.Attempted++
	if l.err != nil {
		lg.res.Failed++
		fmt.Fprintf(lg.log, "perfbench: %s leg failed: %v\n", l.engine, l.err)
		return false
	}
	return true
}

func (lg *ledger) result() result {
	lg.res.Correct = lg.res.Failed == 0 && lg.res.Attempted > 0
	return lg.res
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "sheet", fmt.Sprintf("workload, one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "seed jittering the sheet origins")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	threads := fs.Int("threads", runtime.NumCPU(), "threads of the parallel engines (at most nproc)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateFlags(*threads, *seconds, *trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	w, err := newWorkload(*name, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	recDir, err := os.MkdirTemp(".", ".flightrec-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(recDir)

	h := probeHost(*threads)
	hb, err := json.Marshal(map[string]any{"host": h, "workload": w.name, "seed": *seed, "trace": *trace})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(hb))

	budget := time.Duration(*seconds) * time.Second
	r := bench{w: w, seed: *seed, threads: *threads, recDir: recDir, log: stderr}
	var res result
	if *trace == 1 {
		res, err = r.traced(budget, h, filepath.Join(".out", "spans-"+w.name+".json"))
	} else {
		res = r.timed(budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// validateFlags refuses settings that would mix oversubscribed or
// meaningless rows into the results.
func validateFlags(threads, seconds, trace int) error {
	if n := runtime.NumCPU(); threads < 1 || threads > n {
		return fmt.Errorf("refusing --threads %d: the benchmark runs 1..nproc (%d) threads, never oversubscribed", threads, n)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	return nil
}

// bench is one run's fixed inputs.
type bench struct {
	w       *workload
	seed    int64
	threads int
	recDir  string // flight-recorder bundle directory of observed legs
	log     io.Writer
}

// minRounds is the fewest rounds a timed run makes, whatever its budget,
// so every engine's median has at least this many legs behind it.
const minRounds = 3

// legConfig is engine e's configuration for one leg of this run.
func (b *bench) legConfig(e engine) lbmib.Config {
	cfg := e.config(b.w.base(b.seed), b.threads)
	if b.w.observed {
		cfg = observe(cfg, b.recDir)
	}
	return cfg
}

// timed runs rounds of legs, one leg per engine, while another round
// fits in the budget. Each round starts at the next engine in turn, so
// no engine always runs right after the same one; round 0 starts with
// seq, whose final state is the reference for every later leg. Each MLUPS figure is
// the median over the engine's legs, and setup_s is the median over
// rounds of the time spent in lbmib.New summed over a round's legs.
func (b *bench) timed(budget time.Duration) result {
	lg := newLedger(b.log)
	mlups := map[string][]float64{}
	var setups []float64
	var ref *state
	start := time.Now()
	deadline := start.Add(budget)
	for round := 0; ; round++ {
		// After minRounds, start a round only if one of average length
		// still ends within the budget, so a run does not overrun it.
		if avg := time.Since(start) / time.Duration(max(round, 1)); round >= minRounds &&
			time.Now().Add(avg).After(deadline) {
			break
		}
		setup := 0.0
		for i := range engines {
			e := engines[(i+round)%len(engines)]
			l := runLeg(e, b.legConfig(e), b.w, ref)
			setup += l.newSec
			if !lg.count(l) {
				if ref == nil {
					return lg.result() // no reference: nothing else can be checked
				}
				continue
			}
			if ref == nil {
				ref = &l.final
			}
			mlups[e.name] = append(mlups[e.name], l.mlups)
		}
		setups = append(setups, setup)
	}
	for _, e := range engines {
		lg.set("mlups."+e.name, median(mlups[e.name]), "MLUPS")
		fmt.Fprintf(b.log, "perfbench: %-10s MLUPS %.3f, median of %.3f\n", e.name, median(mlups[e.name]), mlups[e.name])
	}
	lg.set("setup_s", median(setups), "s")
	return lg.result()
}
