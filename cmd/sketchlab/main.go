// Command sketchlab runs the reproduction experiments E1–E40 (DESIGN.md)
// and renders their tables, and drives the fixture parity sweep either
// in-process or against a refereed daemon.
//
// Usage:
//
//	sketchlab [-scale small|full] [-seed N] [-run E5,E6] [-workers N] [-faults PLAN]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	sketchlab -sweep [-workers N] [-json]
//	sketchlab -remote HOST:PORT [-workers N] [-json]
//
// -sweep executes the committed-fixture specs (wire.SmokeSpecs) locally
// and prints one deterministic line per run: label, protocol, transcript
// digest, bit counts, outcome, resilience — and nothing that varies
// between hosts or worker counts. -remote dispatches the same sweep to a
// refereed daemon; because local and remote share one execution path,
// the two outputs diff clean byte for byte, which is exactly what the CI
// smoke job checks. -json replaces the text lines with the service's
// JSON report form (wire.ReportJSON, transcripts elided).
//
// -workers sets the execution-engine worker count (0 = GOMAXPROCS) and
// must be >= 0. The engine is bit-deterministic, so output is
// byte-identical for any value — including -workers 1, the sequential
// baseline; the flag only changes wall time.
//
// -faults adds a custom fault plan to the E20 resilience sweep, e.g.
// "drop=0.1,corrupt=0.05,flip=4,straggle=0.01,delay=2ms"
// (fbdrop=P/fbcorrupt=P target the referee feedback lane of adaptive
// protocols). Faults are label-derived from the seed, so faulted runs
// are equally deterministic at every -workers value.
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments (the heap profile is taken after the final run), for
// inspecting where sketch-construction time and allocations go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/wire"
)

func main() {
	// run does the real work so that profile-flushing defers execute
	// before the process decides its exit code.
	if !run() {
		os.Exit(1)
	}
}

func run() (ok bool) {
	scaleFlag := flag.String("scale", "small", "experiment scale: small or full")
	seed := flag.Uint64("seed", 42, "root seed for all randomness")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	format := flag.String("format", "text", "output format: text or md")
	workers := flag.Int("workers", 0, "engine workers, >= 0 (0 = GOMAXPROCS); output is byte-identical for any value")
	faultsFlag := flag.String("faults", "", "custom fault plan for the E20 sweep (drop=P,corrupt=P,flip=K,straggle=P,delay=D,fbdrop=P,fbcorrupt=P)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the runs) to this file")
	sweep := flag.Bool("sweep", false, "run the fixture parity sweep locally instead of experiments")
	remote := flag.String("remote", "", "dispatch the parity sweep to a refereed daemon at this HOST:PORT")
	jsonOut := flag.Bool("json", false, "emit sweep results as JSON reports (wire.ReportJSON) instead of text lines")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "sketchlab: -workers must be >= 0 (0 = GOMAXPROCS), got %d\n", *workers)
		os.Exit(2)
	}
	if *sweep || *remote != "" || *jsonOut {
		return runSweep(*remote, *workers, *jsonOut)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sketchlab: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sketchlab: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sketchlab: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sketchlab: memprofile: %v\n", err)
			}
		}()
	}

	experiments.SetWorkers(*workers)
	plan, err := faults.ParsePlan(*faultsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sketchlab: %v\n", err)
		os.Exit(2)
	}
	experiments.SetFaultPlan(plan)

	if *list {
		for _, entry := range experiments.Registry() {
			fmt.Println(entry.ID)
		}
		return true
	}

	scale := experiments.Small
	switch *scaleFlag {
	case "small":
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "sketchlab: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	failed := false
	for _, entry := range experiments.Registry() {
		if len(want) > 0 && !want[entry.ID] {
			continue
		}
		tables, err := entry.Run(scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sketchlab: %s: %v\n", entry.ID, err)
			failed = true
			continue
		}
		for _, t := range tables {
			var err error
			switch *format {
			case "md":
				err = t.RenderMarkdown(os.Stdout)
			default:
				err = t.Render(os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "sketchlab: render %s: %v\n", t.ID, err)
				failed = true
			}
		}
	}
	return !failed
}

// runSweep executes the fixture parity sweep — locally, or via a
// refereed daemon when remote is set — and prints one report per spec.
// The text form contains only fields that are deterministic across
// hosts, transports, and worker counts, so two sweeps of the same tree
// diff clean regardless of where or how wide they ran.
func runSweep(remote string, workers int, jsonOut bool) (ok bool) {
	ctx := context.Background()
	specs := wire.SmokeSpecs(workers)
	reports := make([]*wire.RunReport, 0, len(specs))
	if remote != "" {
		base := remote
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c := client.New(client.Config{BaseURL: base})
		if _, err := c.Health(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "sketchlab: remote %s: %v\n", remote, err)
			return false
		}
		for _, spec := range specs {
			report, err := c.Run(ctx, spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sketchlab: remote %s: %v\n", spec.Label, err)
				return false
			}
			reports = append(reports, report)
		}
	} else {
		for _, spec := range specs {
			report, err := wire.ExecuteSpec(ctx, spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sketchlab: %s: %v\n", spec.Label, err)
				return false
			}
			reports = append(reports, report)
		}
	}
	if jsonOut {
		out := make([]wire.ReportJSON, len(reports))
		for i, r := range reports {
			out[i] = wire.ReportToJSON(r, false)
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sketchlab: %v\n", err)
			return false
		}
		fmt.Println(string(data))
		return true
	}
	for _, r := range reports {
		outcome := fmt.Sprintf("%s/%d", r.Outcome.Kind, r.Outcome.Size)
		if r.Outcome.Checked {
			if r.Outcome.Valid {
				outcome += ":valid"
			} else {
				outcome += ":INVALID"
			}
		}
		fmt.Printf("%-26s protocol=%-18s total_bits=%-8d fb_bits=%-6d max_msg_bits=%-6d outcome=%-16s resilience=%-8s digest=%s\n",
			r.Spec.Label, r.Spec.Protocol, r.Stats.TotalBits, r.Stats.FeedbackBits,
			r.Stats.MaxMessageBits, outcome, r.Stats.Faults.Resilience, r.Digest())
	}
	return true
}
