package experiments

// E20 is the resilience sweep of ISSUE 2 (there labeled "E13", an ID the
// certificate experiment already owns): drop-rate × corruption-rate grids
// over the AGM one-round forest, the two-round filtering MM, and the
// two-round MIS, all executed through internal/faults. Every fault is
// label-derived from the recorded seed, so the sweep — including exactly
// which messages dropped — reproduces byte-identically at any -workers.

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/agm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// faultPlan is an extra operator-chosen plan appended to the E20 grid
// (cmd/sketchlab -faults).
var faultPlan faults.Plan

// SetFaultPlan adds a custom fault plan to the E20 resilience sweep
// (cmd/sketchlab -faults). The zero plan adds nothing.
func SetFaultPlan(p faults.Plan) { faultPlan = p }

// resilienceCell aggregates one (protocol, plan) grid cell.
type resilienceCell struct {
	ok, degraded, failed int
	correct              int
	silentWrong          int // verdict ok but output fails external verification
}

// resilienceTrials runs `trials` faulted executions of one protocol.
// makeGraph(i) supplies the i-th input; verify checks the decoded output
// against the true graph — ground truth the referee never sees, used here
// only to audit the verdicts.
func resilienceTrials[O any](
	newProto func() engine.Protocol[O],
	makeGraph func(trial int) *graph.Graph,
	verify func(g *graph.Graph, out O) bool,
	plan faults.Plan, root *rng.PublicCoins, trials int,
) resilienceCell {
	var cell resilienceCell
	for i := 0; i < trials; i++ {
		g := makeGraph(i)
		coins := root.Derive("proto").DeriveIndex(i)
		faultCoins := root.Derive("fault").DeriveIndex(i)
		res, err := faults.Run(context.Background(), newEngine(), newProto(), g, coins, plan, faultCoins)
		verdict := res.Stats.Faults.Resilience
		if err != nil {
			verdict = core.ResilienceFailed
		}
		good := err == nil && verify(g, res.Output)
		switch verdict {
		case core.ResilienceOK:
			cell.ok++
			if !good {
				cell.silentWrong++
			}
		case core.ResilienceDegraded:
			cell.degraded++
		default:
			cell.failed++
		}
		if good {
			cell.correct++
		}
	}
	return cell
}

// E20ResilienceSweep measures protocol degradation under the faults
// layer: a drop × corruption grid plus a straggler-only row (which must
// behave exactly like the clean row — stragglers delay, never damage).
func E20ResilienceSweep(scale Scale, seed uint64) ([]*Table, error) {
	n := 60
	trials := 6
	drops := []float64{0, 0.1}
	corrupts := []float64{0, 0.1}
	if scale == Full {
		n = 150
		trials = 20
		drops = []float64{0, 0.05, 0.15, 0.3}
		corrupts = []float64{0, 0.05, 0.15}
	}
	root := rng.NewPublicCoins(seed ^ 0xe20e20)

	t := &Table{
		ID:    "E20",
		Title: fmt.Sprintf("resilience sweep: faulted runs over n=%d, %d trials/cell", n, trials),
		Columns: []string{"protocol", "drop", "corrupt", "straggle",
			"ok", "degraded", "failed", "correct", "silent-wrong"},
		Notes: []string{
			"verdicts from faults.Run (protocol-layer detection folded with the channel record)",
			"correct = output passes external verification against the true graph",
			"silent-wrong = verdict ok yet verification fails — must be 0 (the resilience contract)",
			"straggle row: delays exercise the worker pool but never alter bits, so it matches the clean row",
			fmt.Sprintf("reproduce: sketchlab -run E20 -seed %d (any -workers; faults are label-derived)", seed),
		},
	}

	gnp := func(label string) func(int) *graph.Graph {
		return func(i int) *graph.Graph {
			return gen.Gnp(n, 3*math.Log(float64(n))/float64(n)*2, root.Derive("g/"+label).DeriveIndex(i).Source())
		}
	}

	type rowRunner func(plan faults.Plan, label string) resilienceCell
	protocols := []struct {
		name string
		run  rowRunner
	}{
		{"agm-forest", func(plan faults.Plan, label string) resilienceCell {
			return resilienceTrials(
				func() engine.Protocol[[]graph.Edge] {
					return protocol.OneRound[[]graph.Edge](agm.NewSpanningForest(agm.Config{}))
				},
				gnp("agm/"+label),
				func(g *graph.Graph, out []graph.Edge) bool { return graph.IsSpanningForest(g, out) },
				plan, root.Derive("agm/"+label), trials)
		}},
		{"agm-forest+backup", func(plan faults.Plan, label string) resilienceCell {
			return resilienceTrials(
				func() engine.Protocol[[]graph.Edge] {
					return protocol.OneRound[[]graph.Edge](agm.NewSpanningForest(agm.Config{BackupReps: 2}))
				},
				gnp("agmb/"+label),
				func(g *graph.Graph, out []graph.Edge) bool { return graph.IsSpanningForest(g, out) },
				plan, root.Derive("agmb/"+label), trials)
		}},
		{"two-round-mm", func(plan faults.Plan, label string) resilienceCell {
			return resilienceTrials(
				func() engine.Protocol[[]graph.Edge] { return matchproto.NewTwoRound() },
				gnp("mm/"+label),
				func(g *graph.Graph, out []graph.Edge) bool { return graph.IsMaximalMatching(g, out) },
				plan, root.Derive("mm/"+label), trials)
		}},
		{"two-round-mis", func(plan faults.Plan, label string) resilienceCell {
			return resilienceTrials(
				func() engine.Protocol[[]int] { return misproto.NewTwoRound() },
				gnp("mis/"+label),
				func(g *graph.Graph, out []int) bool { return graph.IsMaximalIndependentSet(g, out) },
				plan, root.Derive("mis/"+label), trials)
		}},
	}

	addRow := func(name string, plan faults.Plan, cell resilienceCell) {
		t.AddRow(name, plan.DropProb, plan.CorruptProb, plan.StragglerProb,
			cell.ok, cell.degraded, cell.failed,
			fmt.Sprintf("%d/%d", cell.correct, trials), cell.silentWrong)
	}

	for _, proto := range protocols {
		for _, drop := range drops {
			for _, corrupt := range corrupts {
				plan := faults.Plan{DropProb: drop, CorruptProb: corrupt, FlipBits: 3}
				label := fmt.Sprintf("d%g-c%g", drop, corrupt)
				addRow(proto.name, plan, proto.run(plan, label))
			}
		}
		// Straggler-only control row: same inputs and coins as the clean
		// d0-c0 cell, so identical verdict counts prove delays are benign.
		plan := faults.Plan{StragglerProb: 0.2, StragglerDelay: 200 * time.Microsecond}
		addRow(proto.name, plan, proto.run(plan, "d0-c0"))
	}

	if faultPlan.Active() {
		for _, proto := range protocols {
			addRow(proto.name+" (custom)", faultPlan, proto.run(faultPlan, "custom"))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("custom rows from -faults %q", faultPlan))
	}
	return []*Table{t}, nil
}
