// Command rsgen constructs a Ruzsa–Szemerédi graph, verifies the
// induced-matching partition, and prints its parameters (optionally the
// full edge partition). With -sketch it additionally runs the two-round
// maximal-matching sketching protocol on the constructed graph through
// the concurrent execution engine and reports run-level metrics.
//
// Usage:
//
//	rsgen [-m 60] [-family behrend|disjoint] [-r R -t T] [-print]
//	      [-sketch] [-trials N] [-workers N] [-seed N] [-remote HOST:PORT]
//
// -workers sets the engine worker count (0 = GOMAXPROCS) and must be
// >= 0; the engine is bit-deterministic, so sketch output is
// byte-identical for any value — -workers 1 reproduces the same results
// as any parallel run.
//
// -remote dispatches the sketch trials to a refereed daemon instead of
// running them in-process. The RS construction is a pure function of its
// parameters and trial coins are seed-derived, so the daemon reproduces
// exactly the runs a local -sketch would execute.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/ap3"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/rng"
	"repro/internal/rsgraph"
	"repro/internal/wire"
)

func main() {
	m := flag.Int("m", 60, "behrend family parameter (t = m matchings)")
	family := flag.String("family", "behrend", "construction: behrend or disjoint")
	r := flag.Int("r", 4, "disjoint family: matching size")
	t := flag.Int("t", 8, "disjoint family: matching count")
	printEdges := flag.Bool("print", false, "print the edge partition")
	sketch := flag.Bool("sketch", false, "run the two-round MM sketch on the RS graph via the engine")
	trials := flag.Int("trials", 4, "sketch trials (each with fresh coins)")
	workers := flag.Int("workers", 0, "engine workers, >= 0 (0 = GOMAXPROCS); sketch output is byte-identical for any value")
	seed := flag.Uint64("seed", 42, "root seed for sketch trials")
	remote := flag.String("remote", "", "dispatch -sketch trials to a refereed daemon at this HOST:PORT")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "rsgen: -workers must be >= 0 (0 = GOMAXPROCS), got %d\n", *workers)
		os.Exit(2)
	}

	var rs *rsgraph.RSGraph
	switch *family {
	case "behrend":
		var err error
		rs, err = rsgraph.BuildBehrend(*m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsgen: %v\n", err)
			os.Exit(1)
		}
		set := ap3.Best(*m)
		fmt.Printf("3-AP-free set (|S| = %d): %v\n", len(set), set)
	case "disjoint":
		rs = rsgraph.DisjointMatchings(*r, *t)
	default:
		fmt.Fprintf(os.Stderr, "rsgen: unknown family %q\n", *family)
		os.Exit(2)
	}

	fmt.Printf("(r, t)-RS graph: r = %d, t = %d, N = %d, edges = %d\n",
		rs.R(), rs.T(), rs.N(), rs.G.M())
	if err := rsgraph.Verify(rs); err != nil {
		fmt.Fprintf(os.Stderr, "rsgen: VERIFICATION FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("induced-matching partition verified")

	if *printEdges {
		for j, matching := range rs.Matchings {
			fmt.Printf("M_%d:", j)
			for _, e := range matching {
				fmt.Printf(" (%d,%d)", e.U, e.V)
			}
			fmt.Println()
		}
	}

	if *sketch {
		var err error
		if *remote != "" {
			gspec := wire.GraphSpec{Kind: "rs-behrend", M: *m}
			if *family == "disjoint" {
				gspec = wire.GraphSpec{Kind: "rs-disjoint", R: *r, T: *t}
			}
			err = runSketchRemote(*remote, gspec, *trials, *workers, *seed)
		} else {
			err = runSketch(rs, *trials, *workers, *seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsgen: sketch: %v\n", err)
			os.Exit(1)
		}
	}
}

// runSketchRemote dispatches the sketch trials to a refereed daemon as
// one batch of RunSpecs. Each trial's coins are expressed as the derived
// node's seed — the same derivation runSketch uses locally — so the
// daemon executes bit-identical runs.
func runSketchRemote(remote string, gspec wire.GraphSpec, trials, workers int, seed uint64) error {
	if trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", trials)
	}
	base := remote
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := client.New(client.Config{BaseURL: base})
	ctx := context.Background()
	if _, err := c.Health(ctx); err != nil {
		return err
	}
	coins := rng.NewPublicCoins(seed).Derive("rsgen-mm")
	specs := make([]wire.RunSpec, trials)
	for i := range specs {
		specs[i] = wire.RunSpec{
			Label:    fmt.Sprintf("mm/trial%d", i),
			Protocol: "mm-tworound",
			Graph:    gspec,
			Seed:     coins.DeriveIndex(i).Seed(),
			Workers:  workers,
		}
	}
	items, err := c.RunBatch(ctx, specs)
	if err != nil {
		return err
	}
	maximal := 0
	var totalBits, broadcasts int64
	maxMsg := 0
	for i := range items {
		if items[i].Err != "" {
			return fmt.Errorf("%s: %s", items[i].Label, items[i].Err)
		}
		if items[i].Outcome.Valid {
			maximal++
		}
		totalBits += items[i].Stats.TotalBits
		broadcasts += int64(items[i].Stats.Broadcasts)
		if items[i].Stats.MaxMessageBits > maxMsg {
			maxMsg = items[i].Stats.MaxMessageBits
		}
	}
	fmt.Printf("two-round MM sketch (remote %s): %d/%d maximal, max message = %d bits, total = %d bits over %d broadcasts\n",
		remote, maximal, len(items), maxMsg, totalBits, broadcasts)
	return engine.WriteStats(os.Stdout, &items[0].Stats)
}

// runSketch executes `trials` independent two-round MM runs on the RS
// graph as one engine batch and prints per-batch and first-run metrics.
func runSketch(rs *rsgraph.RSGraph, trials, workers int, seed uint64) error {
	if trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", trials)
	}
	coins := rng.NewPublicCoins(seed)
	jobs := make([]engine.Job[[]graph.Edge], trials)
	for i := range jobs {
		jobs[i] = engine.Job[[]graph.Edge]{
			Label:    fmt.Sprintf("mm/trial%d", i),
			Protocol: matchproto.NewTwoRound(),
			Graph:    rs.G,
			Coins:    coins.Derive("rsgen-mm").DeriveIndex(i),
		}
	}
	eng := &engine.Engine{Workers: workers}
	results, err := engine.RunBatch(context.Background(), eng, jobs)
	if err != nil {
		return err
	}
	maximal := 0
	for _, jr := range results {
		if jr.Err != nil {
			return fmt.Errorf("%s: %w", jr.Label, jr.Err)
		}
		if graph.IsMaximalMatching(rs.G, jr.Result.Output) {
			maximal++
		}
	}
	sum := engine.Summarize(results)
	fmt.Printf("two-round MM sketch: %d/%d maximal, max message = %d bits, total = %d bits over %d broadcasts\n",
		maximal, sum.Jobs, sum.MaxMessageBits, sum.TotalBits, sum.Broadcasts)
	return engine.WriteStats(os.Stdout, &results[0].Result.Stats)
}
