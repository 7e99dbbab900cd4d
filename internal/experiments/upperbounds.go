package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/agm"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// E8AGMSpanningForest measures the paper's headline contrast: spanning
// forest with polylog-bit sketches.
func E8AGMSpanningForest(scale Scale, seed uint64) ([]*Table, error) {
	src := rng.NewSource(seed)
	coins := rng.NewPublicCoins(seed ^ 0x1234567)
	trials := 8
	ns := []int{64, 128, 256}
	if scale == Full {
		trials = 20
		ns = append(ns, 512, 1024)
	}
	t := &Table{
		ID:      "E8",
		Title:   "AGM spanning forest: polylog sketches where MM/MIS need Ω(√n)",
		Columns: []string{"n", "p", "success", "max sketch bits", "bits/log³n", "trivial n bits"},
		Notes: []string{
			"success = output verified as a spanning forest of G",
			"bits/log³n flat across rows ⇒ O(log³ n) scaling",
		},
	}
	build := func() core.Protocol[[]graph.Edge] { return agm.NewSpanningForest(agm.Config{}) }
	for _, n := range ns {
		prob := 3 * math.Log(float64(n)) / float64(n)
		stats := estimateSuccessBatch[[]graph.Edge](build, func(i int) core.Trial[[]graph.Edge] {
			g := gen.Gnp(n, prob, src)
			return core.Trial[[]graph.Edge]{
				Graph:  g,
				Verify: func(out []graph.Edge) bool { return graph.IsSpanningForest(g, out) },
			}
		}, trials, coins.DeriveIndex(n))
		logN := math.Log2(float64(n))
		t.AddRow(n, fmt.Sprintf("%.3f", prob),
			fmt.Sprintf("%d/%d", stats.Successes, stats.Trials),
			stats.MaxSketchBits,
			float64(stats.MaxSketchBits)/(logN*logN*logN),
			n)
	}

	// Ablation: rounds/reps budget vs success.
	abl := &Table{
		ID:      "E8b",
		Title:   "Ablation: AGM budget (Borůvka rounds × samplers per round)",
		Columns: []string{"rounds", "reps", "success", "max sketch bits"},
	}
	n := 96
	for _, cfg := range []agm.Config{{Rounds: 1, Reps: 1}, {Rounds: 4, Reps: 1}, {Rounds: 10, Reps: 1}, {Rounds: 10, Reps: 3}, {}} {
		cfg := cfg
		stats := estimateSuccessBatch[[]graph.Edge](func() core.Protocol[[]graph.Edge] {
			return agm.NewSpanningForest(cfg)
		}, func(i int) core.Trial[[]graph.Edge] {
			g := gen.Gnp(n, 0.1, src)
			return core.Trial[[]graph.Edge]{
				Graph:  g,
				Verify: func(out []graph.Edge) bool { return graph.IsSpanningForest(g, out) },
			}
		}, trials, coins.Derive("abl").DeriveIndex(cfg.Rounds*10+cfg.Reps))
		label := func(v int, def string) string {
			if v == 0 {
				return def
			}
			return fmt.Sprintf("%d", v)
		}
		abl.AddRow(label(cfg.Rounds, "auto"), label(cfg.Reps, "auto"),
			fmt.Sprintf("%d/%d", stats.Successes, stats.Trials), stats.MaxSketchBits)
	}
	return []*Table{t, abl}, nil
}

// E9BridgeFinding reproduces footnote 1: finding the single bridge
// between two random blobs with O(log²n)-bit sketches.
func E9BridgeFinding(scale Scale, seed uint64) ([]*Table, error) {
	src := rng.NewSource(seed)
	coins := rng.NewPublicCoins(seed ^ 0x7654321)
	trials := 15
	halves := []int{30, 60}
	if scale == Full {
		trials = 40
		halves = append(halves, 150, 400)
	}
	t := &Table{
		ID:      "E9",
		Title:   "Footnote 1: recovering the hidden bridge between two blobs",
		Columns: []string{"n", "success", "max sketch bits", "trivial n bits"},
		Notes: []string{
			"the bridge is locally indistinguishable from other edges at its endpoints;",
			"cancellation of the signed edge-ID sums exposes it to the referee",
		},
	}
	for _, half := range halves {
		bridges := make([]graph.Edge, trials)
		jobs := make([]engine.Job[graph.Edge], trials)
		for trial := 0; trial < trials; trial++ {
			g, bridge := gen.TwoBlobsWithBridge(half, math.Max(0.1, 8/float64(half)), src)
			bridges[trial] = bridge
			jobs[trial] = oneRoundJob(fmt.Sprintf("bridge/h%d/t%d", half, trial),
				agm.NewBridgeFinder(0), g, coins.DeriveIndex(half*1000+trial))
		}
		results, err := runOneRoundBatch(jobs)
		if err != nil {
			return nil, err
		}
		success, maxBits := 0, 0
		for trial, jr := range results {
			// A failed decode counts as a miss and (matching the
			// sequential sweep it replaced) leaves the bit column alone.
			if jr.Err != nil {
				continue
			}
			if jr.Result.Stats.MaxMessageBits > maxBits {
				maxBits = jr.Result.Stats.MaxMessageBits
			}
			if jr.Result.Output == bridges[trial] {
				success++
			}
		}
		t.AddRow(2*half, fmt.Sprintf("%d/%d", success, trials), maxBits, 2*half)
	}
	return []*Table{t}, nil
}

// E10Coloring measures palette sparsification for (Δ+1)-coloring, the
// symmetry-breaking problem the paper contrasts against MM/MIS.
func E10Coloring(scale Scale, seed uint64) ([]*Table, error) {
	src := rng.NewSource(seed)
	coins := rng.NewPublicCoins(seed ^ 0xfeedbeef)
	trials := 5
	type cfg struct {
		n int
		p float64
	}
	cfgs := []cfg{{100, 0.2}, {200, 0.3}}
	if scale == Full {
		trials = 12
		cfgs = append(cfgs, cfg{400, 0.5}, cfg{800, 0.5})
	}
	t := &Table{
		ID:      "E10",
		Title:   "(Δ+1)-coloring via palette sparsification [ACK19]",
		Columns: []string{"n", "Δ", "list size", "success", "max sketch bits", "full-neighborhood bits"},
		Notes: []string{
			"sketch lists only the conflict neighbors (lists intersecting); savings grow once Δ ≫ log²n",
		},
	}
	for _, c := range cfgs {
		g := gen.Gnp(c.n, c.p, src)
		delta := g.MaxDegree()
		stats := estimateSuccessBatch[[]int](func() core.Protocol[[]int] {
			return coloring.New(coloring.Config{MaxDegree: delta})
		}, func(i int) core.Trial[[]int] {
			return core.Trial[[]int]{
				Graph:  g,
				Verify: func(out []int) bool { return graph.IsProperColoring(g, out, delta+1) },
			}
		}, trials, coins.DeriveIndex(c.n))
		listSize := int(math.Ceil(6 * math.Log(float64(c.n)+1)))
		idBits := int(math.Ceil(math.Log2(float64(c.n))))
		t.AddRow(c.n, delta, listSize,
			fmt.Sprintf("%d/%d", stats.Successes, stats.Trials),
			stats.MaxSketchBits, delta*idBits)
	}

	// Ablation: the list-length factor c in ℓ = c·ln n — the DESIGN.md §4
	// knob. On the complete graph, list coloring from random ℓ-lists is a
	// system-of-distinct-representatives problem with a sharp threshold
	// at ℓ ≈ ln n, the regime ACK19's analysis is built around.
	abl := &Table{
		ID:      "E10b",
		Title:   "Ablation: palette list length ℓ = c·ln n on K_n (threshold at c = 1)",
		Columns: []string{"c", "list size", "success", "max sketch bits"},
	}
	kg := gen.Complete(80)
	kd := kg.MaxDegree()
	for _, c := range []float64{0.5, 1, 2, 4} {
		ls := int(math.Ceil(c * math.Log(float64(kg.N())+1)))
		stats := estimateSuccessBatch[[]int](func() core.Protocol[[]int] {
			return coloring.New(coloring.Config{MaxDegree: kd, ListSize: ls})
		}, func(i int) core.Trial[[]int] {
			return core.Trial[[]int]{
				Graph:  kg,
				Verify: func(out []int) bool { return graph.IsProperColoring(kg, out, kd+1) },
			}
		}, trials, coins.Derive("palette-abl").DeriveIndex(int(c*10)))
		abl.AddRow(c, ls, fmt.Sprintf("%d/%d", stats.Successes, stats.Trials), stats.MaxSketchBits)
	}
	return []*Table{t, abl}, nil
}

// E11TwoRound measures the Section 1.1 remark: with one extra adaptive
// round, MM and MIS drop to O(√n·polylog n)-bit messages.
func E11TwoRound(scale Scale, seed uint64) ([]*Table, error) {
	src := rng.NewSource(seed)
	coins := rng.NewPublicCoins(seed ^ 0x2468ace)
	trials := 6
	ns := []int{100, 200, 400}
	if scale == Full {
		trials = 15
		ns = append(ns, 800, 1600)
	}
	t := &Table{
		ID:      "E11",
		Title:   "Two-round adaptive MM and MIS ([46],[35]): O(√n·polylog) messages",
		Columns: []string{"n", "problem", "success", "round-1 max bits", "round-2 max bits", "√n·log²n", "n (trivial)"},
		Notes: []string{
			"one-round protocols need Ω(√n/e^Θ(√log n)) (Thms 1–2); one extra round reaches the same regime constructively",
		},
	}
	eng := newEngine()
	for _, n := range ns {
		ref := math.Sqrt(float64(n)) * math.Pow(math.Log2(float64(n)+1), 2)
		g := gen.Gnp(n, 0.3, src)

		// All trials of one (n, problem) sweep run as a single engine
		// batch: results come back in job order, and each job carries its
		// own protocol instance and coin sub-stream, so the table is
		// identical for every worker count.
		mmJobs := make([]engine.Job[[]graph.Edge], trials)
		for trial := range mmJobs {
			mmJobs[trial] = engine.Job[[]graph.Edge]{
				Label:    fmt.Sprintf("mm/n%d/t%d", n, trial),
				Protocol: matchproto.NewTwoRound(),
				Graph:    g,
				Coins:    coins.Derive("mm").DeriveIndex(n*100 + trial),
			}
		}
		mmResults, err := engine.RunBatch(context.Background(), eng, mmJobs)
		if err != nil {
			return nil, err
		}
		mmOK := 0
		var mm1, mm2 int
		for _, jr := range mmResults {
			if jr.Err != nil {
				return nil, jr.Err
			}
			if graph.IsMaximalMatching(g, jr.Result.Output) {
				mmOK++
			}
			mm1 = maxInt(mm1, jr.Result.Stats.RoundMaxBits[0])
			mm2 = maxInt(mm2, jr.Result.Stats.RoundMaxBits[1])
		}
		t.AddRow(n, "matching", fmt.Sprintf("%d/%d", mmOK, trials), mm1, mm2, fmt.Sprintf("%.0f", ref), n)

		misJobs := make([]engine.Job[[]int], trials)
		for trial := range misJobs {
			misJobs[trial] = engine.Job[[]int]{
				Label:    fmt.Sprintf("mis/n%d/t%d", n, trial),
				Protocol: misproto.NewTwoRound(),
				Graph:    g,
				Coins:    coins.Derive("mis").DeriveIndex(n*100 + trial),
			}
		}
		misResults, err := engine.RunBatch(context.Background(), eng, misJobs)
		if err != nil {
			return nil, err
		}
		misOK := 0
		var mis1, mis2 int
		for _, jr := range misResults {
			if jr.Err != nil {
				return nil, jr.Err
			}
			if graph.IsMaximalIndependentSet(g, jr.Result.Output) {
				misOK++
			}
			mis1 = maxInt(mis1, jr.Result.Stats.RoundMaxBits[0])
			mis2 = maxInt(mis2, jr.Result.Stats.RoundMaxBits[1])
		}
		t.AddRow(n, "MIS", fmt.Sprintf("%d/%d", misOK, trials), mis1, mis2, fmt.Sprintf("%.0f", ref), n)
	}
	return []*Table{t}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E12BCCEquivalence witnesses the model equivalence of Section 2.1: a
// one-round sketching protocol behaves identically under the broadcast
// congested clique simulator.
func E12BCCEquivalence(scale Scale, seed uint64) ([]*Table, error) {
	src := rng.NewSource(seed)
	coins := rng.NewPublicCoins(seed ^ 0x13579bd)
	trials := 5
	if scale == Full {
		trials = 20
	}
	t := &Table{
		ID:      "E12",
		Title:   "One-round broadcast congested clique ≡ distributed sketching",
		Columns: []string{"protocol", "trials", "identical outputs", "identical max cost"},
	}

	sameEdges := func(a, b []graph.Edge) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	type protoCase struct {
		name string
		p    core.Protocol[[]graph.Edge]
	}
	for _, pc := range []protoCase{
		{"trivial-matching", core.NewTrivialMatching()},
		{"agm-spanning-forest", agm.NewSpanningForest(agm.Config{})},
		{"edge-sample-4", &matchproto.EdgeSample{EdgesPerVertex: 4}},
	} {
		// Graphs are drawn from the shared source first (same order as a
		// sequential sweep), then all BCC simulations run as one engine
		// batch against the direct one-round executions.
		graphs := make([]*graph.Graph, trials)
		jobs := make([]engine.Job[[]graph.Edge], trials)
		for trial := 0; trial < trials; trial++ {
			graphs[trial] = gen.Gnp(40, 0.2, src)
			jobs[trial] = engine.Job[[]graph.Edge]{
				Label:    fmt.Sprintf("%s/t%d", pc.name, trial),
				Protocol: protocol.OneRound[[]graph.Edge](pc.p),
				Graph:    graphs[trial],
				Coins:    coins.Derive(pc.name).DeriveIndex(trial),
			}
		}
		viaBCC, err := engine.RunBatch(context.Background(), newEngine(), jobs)
		if err != nil {
			return nil, err
		}
		same, sameCost := 0, 0
		for trial := 0; trial < trials; trial++ {
			direct, err := core.Run(pc.p, graphs[trial], coins.Derive(pc.name).DeriveIndex(trial))
			if err != nil {
				return nil, err
			}
			if viaBCC[trial].Err != nil {
				return nil, viaBCC[trial].Err
			}
			if sameEdges(direct.Output, viaBCC[trial].Result.Output) {
				same++
			}
			if direct.MaxSketchBits == viaBCC[trial].Result.Stats.MaxMessageBits {
				sameCost++
			}
		}
		t.AddRow(pc.name, trials, fmt.Sprintf("%d/%d", same, trials), fmt.Sprintf("%d/%d", sameCost, trials))
	}
	return []*Table{t}, nil
}
