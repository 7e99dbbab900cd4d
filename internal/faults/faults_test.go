package faults

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/agm"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// testPlan is the reference fault plan used by the golden tests: every
// fault kind active at once.
var testPlan = Plan{
	DropProb:       0.15,
	CorruptProb:    0.15,
	FlipBits:       3,
	StragglerProb:  0.2,
	StragglerDelay: 100 * time.Microsecond,
}

// sequentialFaulted is an independent reference executor: a plain
// vertex-order loop applying the injector, with none of the engine's
// sharding machinery. The golden test compares every Workers setting
// against it.
func sequentialFaulted(t *testing.T, p engine.Broadcaster, g *graph.Graph, plan Plan, coins, faultCoins *rng.PublicCoins) *engine.Transcript {
	t.Helper()
	views := core.Views(g)
	inj := NewInjector(context.Background(), p, plan, faultCoins)
	tr := engine.NewTranscript()
	for round := 0; round < p.Rounds(); round++ {
		msgs := make([]*bitio.Writer, len(views))
		for v := range views {
			w, err := inj.Broadcast(round, views[v], tr, coins)
			if err != nil {
				t.Fatalf("reference broadcast round %d vertex %d: %v", round, v, err)
			}
			msgs[v] = w
		}
		tr.SealRound(msgs)
		fb, err := inj.Feedback(round, tr, coins)
		if err != nil {
			t.Fatalf("reference feedback after round %d: %v", round, err)
		}
		tr.SealFeedback(fb)
	}
	return tr
}

// transcriptBits flattens a transcript into per-(round, vertex) bit
// strings for byte-exact comparison.
func transcriptBits(t *testing.T, tr *engine.Transcript, n int) []string {
	t.Helper()
	var out []string
	for round := 0; round < tr.Rounds(); round++ {
		for v := 0; v < n; v++ {
			var sb strings.Builder
			r := tr.Message(round, v)
			for r.Remaining() > 0 {
				b, err := r.ReadBit()
				if err != nil {
					t.Fatalf("round %d vertex %d: %v", round, v, err)
				}
				if b {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			out = append(out, sb.String())
		}
	}
	return out
}

// goldenFaulted checks the extended determinism contract for one
// protocol: the faulted transcript at Workers ∈ {1, 2, 8} is byte-
// identical to the sequential reference, and the Resilience verdict and
// fault accounting are identical too.
func goldenFaulted[O any](t *testing.T, newProto func() engine.Protocol[O], g *graph.Graph, plan Plan) {
	t.Helper()
	coins := rng.NewPublicCoins(101)
	faultCoins := rng.NewPublicCoins(202).Derive("faults")

	ref := sequentialFaulted(t, newProto(), g, plan, coins, faultCoins)
	refBits := transcriptBits(t, ref, g.N())

	var wantStats *engine.FaultStats
	for _, workers := range []int{1, 2, 8} {
		eng := &engine.Engine{Workers: workers, ShardSize: 3}

		inj := NewInjector(context.Background(), newProto(), plan, faultCoins)
		tr, _, err := eng.Execute(context.Background(), inj, g, coins)
		if err != nil {
			t.Fatalf("workers=%d: execute: %v", workers, err)
		}
		gotBits := transcriptBits(t, tr, g.N())
		if len(gotBits) != len(refBits) {
			t.Fatalf("workers=%d: %d messages, reference has %d", workers, len(gotBits), len(refBits))
		}
		for i := range refBits {
			if gotBits[i] != refBits[i] {
				t.Fatalf("workers=%d: message %d differs from sequential reference", workers, i)
			}
		}

		res, err := Run(context.Background(), eng, newProto(), g, coins, plan, faultCoins)
		if err != nil {
			t.Fatalf("workers=%d: run: %v", workers, err)
		}
		fs := res.Stats.Faults
		if !fs.Injected {
			t.Fatalf("workers=%d: faults not marked injected", workers)
		}
		if wantStats == nil {
			wantStats = &fs
			if fs.Dropped == 0 || fs.Corrupted == 0 || fs.Straggled == 0 {
				t.Fatalf("plan injected nothing of some kind: %+v", fs)
			}
			continue
		}
		if fs != *wantStats {
			t.Errorf("workers=%d: fault stats %+v, want %+v", workers, fs, *wantStats)
		}
	}
}

func TestGoldenFaultedAGMForest(t *testing.T) {
	g := gen.Gnp(48, 0.2, rng.NewSource(7))
	goldenFaulted(t, func() engine.Protocol[[]graph.Edge] {
		return protocol.OneRound[[]graph.Edge](agm.NewSpanningForest(agm.Config{BackupReps: 2}))
	}, g, testPlan)
}

func TestGoldenFaultedTwoRoundMM(t *testing.T) {
	g := gen.Gnp(48, 0.2, rng.NewSource(7))
	goldenFaulted(t, func() engine.Protocol[[]graph.Edge] {
		return matchproto.NewTwoRound()
	}, g, testPlan)
}

func TestGoldenFaultedTwoRoundMIS(t *testing.T) {
	g := gen.Gnp(48, 0.2, rng.NewSource(7))
	goldenFaulted(t, func() engine.Protocol[[]int] {
		return misproto.NewTwoRound()
	}, g, testPlan)
}

// TestStragglerOnlyPreservesBits: a plan that only delays must yield a
// transcript byte-identical to the unfaulted run and an ok verdict.
func TestStragglerOnlyPreservesBits(t *testing.T) {
	g := gen.Gnp(40, 0.25, rng.NewSource(3))
	coins := rng.NewPublicCoins(11)
	faultCoins := rng.NewPublicCoins(12).Derive("faults")
	plan := Plan{StragglerProb: 0.5, StragglerDelay: 50 * time.Microsecond}

	clean, _, err := (&engine.Engine{Workers: 2}).Execute(context.Background(), matchproto.NewTwoRound(), g, coins)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(context.Background(), matchproto.NewTwoRound(), plan, faultCoins)
	faulted, _, err := (&engine.Engine{Workers: 2}).Execute(context.Background(), inj, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	want := transcriptBits(t, clean, g.N())
	got := transcriptBits(t, faulted, g.N())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("straggler-only plan changed message %d", i)
		}
	}

	res, err := Run(context.Background(), &engine.Engine{Workers: 2}, matchproto.NewTwoRound(), g, coins, plan, faultCoins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Faults.Straggled == 0 {
		t.Error("expected straggled broadcasts")
	}
	if res.Stats.Faults.Resilience != core.ResilienceOK {
		t.Errorf("straggler-only run verdict %s, want ok", res.Stats.Faults.Resilience)
	}
	if !graph.IsMaximalMatching(g, res.Output) {
		t.Error("straggler-only run output not a maximal matching")
	}
}

// TestStragglerCancellation: a huge delay must not stall cancellation —
// the injector's sleep is interruptible and the engine checks the context
// between vertices.
func TestStragglerCancellation(t *testing.T) {
	g := gen.Gnp(32, 0.3, rng.NewSource(5))
	coins := rng.NewPublicCoins(21)
	faultCoins := rng.NewPublicCoins(22).Derive("faults")
	plan := Plan{StragglerProb: 1, StragglerDelay: time.Hour}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, &engine.Engine{Workers: 2}, matchproto.NewTwoRound(), g, coins, plan, faultCoins)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}

// TestDropEverything: DropProb 1 must empty every message and be fully
// accounted; the referee reports failed, never a silent wrong answer.
func TestDropEverything(t *testing.T) {
	g := gen.Gnp(24, 0.3, rng.NewSource(9))
	coins := rng.NewPublicCoins(31)
	faultCoins := rng.NewPublicCoins(32).Derive("faults")
	plan := Plan{DropProb: 1}

	res, err := Run(context.Background(), &engine.Engine{Workers: 2}, matchproto.NewTwoRound(), g, coins, plan, faultCoins)
	if err != nil && res.Stats.Faults.Resilience != core.ResilienceFailed {
		t.Fatalf("errored run classified %s, want failed", res.Stats.Faults.Resilience)
	}
	if err == nil {
		if res.Stats.Faults.Dropped != 2*g.N() {
			t.Errorf("dropped %d messages, want %d", res.Stats.Faults.Dropped, 2*g.N())
		}
		if res.Stats.Faults.Resilience != core.ResilienceFailed {
			t.Errorf("verdict %s, want failed", res.Stats.Faults.Resilience)
		}
	}
}

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("drop=0.1,corrupt=0.05,flip=4,straggle=0.01,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{DropProb: 0.1, CorruptProb: 0.05, FlipBits: 4, StragglerProb: 0.01, StragglerDelay: 2 * time.Millisecond}
	if plan != want {
		t.Errorf("ParsePlan = %+v, want %+v", plan, want)
	}
	if p, err := ParsePlan(""); err != nil || p.Active() {
		t.Errorf("empty plan: %+v, %v", p, err)
	}
	for _, bad := range []string{"drop=2", "nope=1", "flip=0", "delay=-1s", "drop"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

var sinkCoin bool

// TestFaultLabels: appendLabel builds, byte for byte, the
// fault/<kind>/<round>/<v> label every fault sub-stream has been derived
// from, for every kind and for rounds and vertices of one to ten digits,
// including labels longer than the stack buffer; and a coin derives its
// label without allocating.
func TestFaultLabels(t *testing.T) {
	kinds := []string{"drop", "corrupt", "flip", "straggle", "fb-drop", "fb-corrupt", "fb-flip"}
	values := []int{0, 7, 10, 99, 123, 4096, 99999, 1234567, 2147483647}
	for _, kind := range kinds {
		for _, round := range values {
			for _, v := range values {
				var buf [labelBuf]byte
				got := string(appendLabel(buf[:0], kind, round, v))
				if want := fmt.Sprintf("fault/%s/%d/%d", kind, round, v); got != want {
					t.Fatalf("appendLabel(%q, %d, %d) = %q, want %q", kind, round, v, got, want)
				}
			}
		}
	}
	coins := rng.NewPublicCoins(3)
	if n := testing.AllocsPerRun(100, func() { sinkCoin = coin(coins, "fb-corrupt", 1234567, 1234567, 0.5) }); n != 0 {
		t.Errorf("coin allocates %v times, want 0", n)
	}
}

// TestEvaluateMatchesTranscript: the referee-side record must agree with
// what the injector visibly did to the transcript.
func TestEvaluateMatchesTranscript(t *testing.T) {
	g := gen.Gnp(30, 0.3, rng.NewSource(13))
	coins := rng.NewPublicCoins(41)
	faultCoins := rng.NewPublicCoins(42).Derive("faults")
	plan := Plan{DropProb: 0.3}

	p := matchproto.NewTwoRound()
	inj := NewInjector(context.Background(), p, plan, faultCoins)
	tr, _, err := (&engine.Engine{Workers: 2}).Execute(context.Background(), inj, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	rec := plan.Evaluate(faultCoins, tr, g.N())
	empties := 0
	for round := 0; round < tr.Rounds(); round++ {
		for v := 0; v < g.N(); v++ {
			if tr.BitLen(round, v) == 0 {
				empties++
			}
		}
	}
	// Every derived drop left a zero-bit message (legitimate messages in
	// both MM rounds always carry at least the count bit).
	if rec.Dropped != empties {
		t.Errorf("record says %d drops, transcript has %d empty messages", rec.Dropped, empties)
	}
	if rec.Dropped == 0 {
		t.Error("plan with DropProb 0.3 dropped nothing")
	}
}
