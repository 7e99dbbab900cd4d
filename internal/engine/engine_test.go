package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/agm"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// sequentialTranscript is an independent reference executor: the plain
// one-vertex-at-a-time loop the repo used before the engine existed,
// extended with the referee's feedback step for adaptive protocols. The
// golden tests compare every engine transcript bit against it.
func sequentialTranscript(t *testing.T, p engine.Broadcaster, g *graph.Graph, coins *rng.PublicCoins) *engine.Transcript {
	t.Helper()
	views := core.Views(g)
	adaptive, _ := p.(engine.Adaptive)
	tr := engine.NewTranscript()
	for round := 0; round < p.Rounds(); round++ {
		msgs := make([]*bitio.Writer, len(views))
		for v, view := range views {
			w, err := p.Broadcast(round, view, tr, coins)
			if err != nil {
				t.Fatalf("reference: round %d player %d: %v", round, v, err)
			}
			msgs[v] = w
		}
		tr.SealRound(msgs)
		if adaptive != nil {
			fb, err := adaptive.Feedback(round, tr, coins)
			if err != nil {
				t.Fatalf("reference: feedback after round %d: %v", round, err)
			}
			tr.SealFeedback(fb)
		}
	}
	return tr
}

// transcriptBits flattens a transcript into per-(round,vertex) bit
// strings.
func transcriptBits(t *testing.T, tr *engine.Transcript, n int) [][]string {
	t.Helper()
	out := make([][]string, tr.Rounds())
	for r := 0; r < tr.Rounds(); r++ {
		out[r] = make([]string, n)
		for v := 0; v < n; v++ {
			var sb strings.Builder
			rd := tr.Message(r, v)
			if rd.Remaining() != tr.BitLen(r, v) {
				t.Fatalf("round %d vertex %d: Remaining %d != BitLen %d", r, v, rd.Remaining(), tr.BitLen(r, v))
			}
			for rd.Remaining() > 0 {
				b, err := rd.ReadBit()
				if err != nil {
					t.Fatal(err)
				}
				if b {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			out[r][v] = sb.String()
		}
	}
	return out
}

// goldenCase runs one protocol through the engine at several worker
// counts and asserts every transcript bit equals the sequential
// reference. newProto must return a fresh protocol instance per call
// (protocols may memoize per-run state).
func goldenCase[O any](t *testing.T, name string, newProto func() engine.Protocol[O], g *graph.Graph, coins *rng.PublicCoins) {
	t.Helper()
	ref := sequentialTranscript(t, newProto(), g, coins)
	want := transcriptBits(t, ref, g.N())

	for _, workers := range []int{1, 2, 8} {
		eng := &engine.Engine{Workers: workers, ShardSize: 3}
		tr, stats, err := eng.Execute(context.Background(), newProto(), g, coins)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if tr.Rounds() != ref.Rounds() {
			t.Fatalf("%s workers=%d: %d rounds, want %d", name, workers, tr.Rounds(), ref.Rounds())
		}
		got := transcriptBits(t, tr, g.N())
		for r := range want {
			for v := range want[r] {
				if got[r][v] != want[r][v] {
					t.Fatalf("%s workers=%d: round %d vertex %d transcript differs:\n got %q\nwant %q",
						name, workers, r, v, got[r][v], want[r][v])
				}
			}
		}
		if int64(stats.Broadcasts) != int64(g.N()*ref.Rounds()) {
			t.Errorf("%s workers=%d: Broadcasts = %d, want %d", name, workers, stats.Broadcasts, g.N()*ref.Rounds())
		}

		// Outputs and bit accounting must match a one-worker run with
		// the default shard size too.
		seqRes, err := runSequential[O](newProto(), g, coins)
		if err != nil {
			t.Fatal(err)
		}
		engRes, err := engine.Run[O](context.Background(), eng, newProto(), g, coins)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", engRes.Output) != fmt.Sprintf("%v", seqRes.Output) {
			t.Errorf("%s workers=%d: outputs differ", name, workers)
		}
		if engRes.Stats.MaxMessageBits != seqRes.Stats.MaxMessageBits || engRes.Stats.TotalBits != seqRes.Stats.TotalBits {
			t.Errorf("%s workers=%d: bit accounting differs: (%d,%d) vs (%d,%d)", name, workers,
				engRes.Stats.MaxMessageBits, engRes.Stats.TotalBits, seqRes.Stats.MaxMessageBits, seqRes.Stats.TotalBits)
		}
	}
}

func TestGoldenDeterminismAGMOneRound(t *testing.T) {
	g := gen.Gnp(60, 0.15, rng.NewSource(11))
	coins := rng.NewPublicCoins(12)
	goldenCase[[]graph.Edge](t, "agm-spanning-forest", func() engine.Protocol[[]graph.Edge] {
		return protocol.OneRound[[]graph.Edge](agm.NewSpanningForest(agm.Config{}))
	}, g, coins)
}

func TestGoldenDeterminismMatchprotoTwoRound(t *testing.T) {
	g := gen.Gnp(50, 0.3, rng.NewSource(13))
	coins := rng.NewPublicCoins(14)
	goldenCase[[]graph.Edge](t, "two-round-mm", func() engine.Protocol[[]graph.Edge] {
		return matchproto.NewTwoRound()
	}, g, coins)
}

// failingProtocol errors at one designated (round, vertex).
type failingProtocol struct {
	failRound, failVertex int
}

var errBoom = errors.New("boom")

func (p *failingProtocol) Name() string { return "failing" }
func (p *failingProtocol) Rounds() int  { return 3 }
func (p *failingProtocol) Broadcast(round int, view core.VertexView, _ *engine.Transcript, _ *rng.PublicCoins) (*bitio.Writer, error) {
	if round == p.failRound && view.ID == p.failVertex {
		return nil, errBoom
	}
	w := &bitio.Writer{}
	w.WriteUvarint(uint64(view.ID))
	return w, nil
}
func (p *failingProtocol) Decode(n int, _ *engine.Transcript, _ *rng.PublicCoins) (int, error) {
	return n, nil
}

func TestBroadcastErrorCancelsRun(t *testing.T) {
	g := gen.Path(40)
	for _, workers := range []int{1, 4} {
		eng := &engine.Engine{Workers: workers, ShardSize: 4}
		tr, stats, err := eng.Execute(context.Background(), &failingProtocol{failRound: 1, failVertex: 17}, g, rng.NewPublicCoins(1))
		if err == nil || !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: err = %v, want errBoom", workers, err)
		}
		if !strings.Contains(err.Error(), "round 1 player 17") {
			t.Errorf("workers=%d: error %q does not name round 1 player 17", workers, err)
		}
		// Partial results: round 0 sealed, round 1 not.
		if tr.Rounds() != 1 || stats.CompletedRounds != 1 {
			t.Errorf("workers=%d: sealed %d rounds (stats %d), want 1", workers, tr.Rounds(), stats.CompletedRounds)
		}
		if stats.Broadcasts < int64(g.N()) {
			t.Errorf("workers=%d: Broadcasts = %d, want >= %d (all of round 0)", workers, stats.Broadcasts, g.N())
		}
		if len(stats.RoundMaxBits) != 1 || len(stats.RoundWall) != 1 {
			t.Errorf("workers=%d: partial stats rounds = %d/%d, want 1/1", workers, len(stats.RoundMaxBits), len(stats.RoundWall))
		}
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &engine.Engine{Workers: 2}
	_, stats, err := eng.Execute(ctx, &failingProtocol{failRound: -1}, gen.Path(10), rng.NewPublicCoins(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.CompletedRounds != 0 {
		t.Errorf("CompletedRounds = %d, want 0", stats.CompletedRounds)
	}
}

// retainingProtocol abuses the API: it keeps the writer it returned in
// round 0 and appends to it in round 1. The sealed round 0 must not
// change; sealing it emptied the kept writer, so round 1 holds only the
// byte appended after the seal.
type retainingProtocol struct {
	kept []*bitio.Writer
}

func (p *retainingProtocol) Name() string { return "retaining" }
func (p *retainingProtocol) Rounds() int  { return 2 }
func (p *retainingProtocol) Broadcast(round int, view core.VertexView, _ *engine.Transcript, _ *rng.PublicCoins) (*bitio.Writer, error) {
	if round == 0 {
		w := &bitio.Writer{}
		w.WriteUint(uint64(view.ID), 8)
		p.kept[view.ID] = w
		return w, nil
	}
	// Round 1: mutate the retained round-0 writer, then echo it.
	p.kept[view.ID].WriteUint(0xff, 8)
	return p.kept[view.ID], nil
}
func (p *retainingProtocol) Decode(n int, _ *engine.Transcript, _ *rng.PublicCoins) (int, error) {
	return n, nil
}

func TestSealedRoundsImmuneToWriterMutation(t *testing.T) {
	g := gen.Path(5)
	p := &retainingProtocol{kept: make([]*bitio.Writer, g.N())}
	eng := &engine.Engine{Workers: 1}
	tr, _, err := eng.Execute(context.Background(), p, g, rng.NewPublicCoins(3))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if got := tr.BitLen(0, v); got != 8 {
			t.Errorf("round 0 vertex %d: BitLen = %d, want 8 (sealed round mutated)", v, got)
		}
		id, err := tr.Message(0, v).ReadUint(8)
		if err != nil || int(id) != v {
			t.Errorf("round 0 vertex %d: payload = %d (err %v), want %d", v, id, err, v)
		}
		if got := tr.BitLen(1, v); got != 8 {
			t.Errorf("round 1 vertex %d: BitLen = %d, want 8 (sealing must empty the writer)", v, got)
		}
	}
}

func TestRunBatchOrderAndIsolation(t *testing.T) {
	coins := rng.NewPublicCoins(21)
	var jobs []engine.Job[[]graph.Edge]
	var graphs []*graph.Graph
	for i := 0; i < 6; i++ {
		g := gen.Gnp(30+5*i, 0.3, rng.NewSource(uint64(100+i)))
		graphs = append(graphs, g)
		jobs = append(jobs, engine.Job[[]graph.Edge]{
			Label:    fmt.Sprintf("mm/%d", i),
			Protocol: matchproto.NewTwoRound(),
			Graph:    g,
			Coins:    coins.DeriveIndex(i),
		})
	}

	want := make([][]graph.Edge, len(jobs))
	for i := range jobs {
		res, err := runSequential[[]graph.Edge](matchproto.NewTwoRound(), graphs[i], coins.DeriveIndex(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Output
	}

	for _, workers := range []int{1, 3, 8} {
		eng := &engine.Engine{Workers: workers}
		results, err := engine.RunBatch(context.Background(), eng, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(jobs))
		}
		for i, jr := range results {
			if jr.Label != jobs[i].Label {
				t.Errorf("workers=%d: result %d label %q, want %q", workers, i, jr.Label, jobs[i].Label)
			}
			if jr.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, jr.Err)
			}
			if fmt.Sprintf("%v", jr.Result.Output) != fmt.Sprintf("%v", want[i]) {
				t.Errorf("workers=%d job %d: output differs from sequential run", workers, i)
			}
		}
		sum := engine.Summarize(results)
		if sum.Jobs != len(jobs) || sum.Failed != 0 || sum.Broadcasts == 0 {
			t.Errorf("workers=%d: summary %+v", workers, sum)
		}
	}
}

func TestRunBatchIsolatesPerJobErrors(t *testing.T) {
	jobs := []engine.Job[int]{
		{Label: "ok", Protocol: &failingProtocol{failRound: -1}, Graph: gen.Path(8), Coins: rng.NewPublicCoins(1)},
		{Label: "bad", Protocol: &failingProtocol{failRound: 0, failVertex: 3}, Graph: gen.Path(8), Coins: rng.NewPublicCoins(2)},
		{Label: "ok2", Protocol: &failingProtocol{failRound: -1}, Graph: gen.Path(8), Coins: rng.NewPublicCoins(3)},
	}
	results, err := engine.RunBatch(context.Background(), &engine.Engine{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !errors.Is(results[1].Err, errBoom) {
		t.Errorf("job 1 err = %v, want errBoom", results[1].Err)
	}
	sum := engine.Summarize(results)
	if sum.Failed != 1 {
		t.Errorf("Failed = %d, want 1", sum.Failed)
	}
}

func TestSequentialRunMatchesParallelRun(t *testing.T) {
	g := gen.Gnp(40, 0.25, rng.NewSource(5))
	coins := rng.NewPublicCoins(6)
	seq, err := runSequential[[]graph.Edge](matchproto.NewTwoRound(), g, coins)
	if err != nil {
		t.Fatal(err)
	}
	par, err := engine.Run[[]graph.Edge](context.Background(), &engine.Engine{Workers: 4}, matchproto.NewTwoRound(), g, coins)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", seq.Output) != fmt.Sprintf("%v", par.Output) {
		t.Error("one-worker and four-worker outputs differ")
	}
	if seq.Stats.MaxMessageBits != par.Stats.MaxMessageBits || seq.Stats.TotalBits != par.Stats.TotalBits {
		t.Error("one-worker and four-worker bit accounting differ")
	}
}
