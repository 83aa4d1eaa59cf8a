// Command lbmib-bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) and the design
// ablations, printing each result next to the paper's published values.
//
//	lbmib-bench -exp all            # everything at the scaled default sizes
//	lbmib-bench -exp fig8 -paper    # one experiment at the paper's sizes
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"lbmib/internal/experiments"
	"lbmib/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmib-bench: ")
	var (
		exp         = flag.String("exp", "all", "experiment: table1, table2, table3, table4, fig5, fig8, copyswap, ablations or all")
		paper       = flag.Bool("paper", false, "use the paper's full problem sizes (slow)")
		steps       = flag.Int("steps", 0, "override time steps for measured experiments")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and pprof on this address while benchmarks run")
	)
	flag.Parse()
	opt := experiments.Options{Paper: *paper, Steps: *steps}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		e, err := telemetry.Serve(*metricsAddr, reg, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer e.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", e.Addr())
	}

	type runner struct {
		name string
		run  func() (string, error)
	}
	all := []runner{
		{"table1", func() (string, error) {
			r, err := experiments.Table1(opt)
			return r.Render(), err
		}},
		{"table2", func() (string, error) {
			r, err := experiments.Table2(opt)
			return r.Render(), err
		}},
		{"table3", func() (string, error) { return experiments.Table3(), nil }},
		{"table4", func() (string, error) { return experiments.Table4(), nil }},
		{"fig5", func() (string, error) {
			r, err := experiments.Fig5(opt)
			return r.Render(), err
		}},
		{"fig8", func() (string, error) {
			r, err := experiments.Fig8(opt)
			return r.Render(), err
		}},
		{"copyswap", func() (string, error) {
			r, err := experiments.AblationCopySwapEngines(opt, reg)
			return r.Render(), err
		}},
		{"ablations", func() (string, error) {
			var b strings.Builder
			if r, err := experiments.AblationCubeSize(opt); err != nil {
				return "", err
			} else {
				b.WriteString(r.Render() + "\n")
			}
			if r, err := experiments.AblationDistribution(opt); err != nil {
				return "", err
			} else {
				b.WriteString(r.Render() + "\n")
			}
			if r, err := experiments.AblationBarriers(opt); err != nil {
				return "", err
			} else {
				b.WriteString(r.Render() + "\n")
			}
			if r, err := experiments.AblationCopyVsSwap(opt); err != nil {
				return "", err
			} else {
				b.WriteString(r.Render() + "\n")
			}
			if r, err := experiments.AblationSchedule(opt); err != nil {
				return "", err
			} else {
				b.WriteString(r.Render() + "\n")
			}
			if r, err := experiments.AblationLayoutCache(opt); err != nil {
				return "", err
			} else {
				b.WriteString(r.Render())
			}
			return b.String(), nil
		}},
	}

	selected := all
	if *exp != "all" {
		selected = nil
		for _, r := range all {
			if r.name == *exp {
				selected = []runner{r}
			}
		}
		if selected == nil {
			log.Fatalf("unknown experiment %q", *exp)
		}
	}

	for i, r := range selected {
		if i > 0 {
			fmt.Println()
		}
		t0 := time.Now()
		out, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %v]\n", r.name, time.Since(t0).Round(time.Millisecond))
	}
}
