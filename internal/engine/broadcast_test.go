package engine_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// runSequential executes p on a one-worker engine.
func runSequential[O any](p engine.Protocol[O], g *graph.Graph, coins *rng.PublicCoins) (engine.Result[O], error) {
	return engine.Run[O](context.Background(), &engine.Engine{Workers: 1}, p, g, coins)
}

// echoProtocol broadcasts the player's degree in round 0 and, in round 1,
// the sum of all round-0 degrees (exercising transcript access); output is
// the referee's recomputation of 2m.
type echoProtocol struct{}

func (echoProtocol) Name() string { return "echo" }
func (echoProtocol) Rounds() int  { return 2 }

func (echoProtocol) Broadcast(round int, view core.VertexView, tr *engine.Transcript, _ *rng.PublicCoins) (*bitio.Writer, error) {
	w := &bitio.Writer{}
	switch round {
	case 0:
		w.WriteUvarint(uint64(view.Degree()))
	case 1:
		sum := uint64(0)
		for v := 0; v < view.N; v++ {
			d, err := tr.Message(0, v).ReadUvarint()
			if err != nil {
				return nil, err
			}
			sum += d
		}
		w.WriteUvarint(sum)
	}
	return w, nil
}

func (echoProtocol) Decode(n int, tr *engine.Transcript, _ *rng.PublicCoins) (int, error) {
	// All round-1 messages must agree; return the common value.
	want := uint64(0)
	for v := 0; v < n; v++ {
		got, err := tr.Message(1, v).ReadUvarint()
		if err != nil {
			return 0, err
		}
		if v == 0 {
			want = got
		} else if got != want {
			return 0, errMismatch
		}
	}
	return int(want), nil
}

var errMismatch = errors.New("round-1 broadcasts disagree")

func TestMultiRoundTranscriptAccess(t *testing.T) {
	g := gen.Gnp(20, 0.3, rng.NewSource(1))
	res, err := runSequential[int](echoProtocol{}, g, rng.NewPublicCoins(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != 2*g.M() {
		t.Errorf("degree sum = %d, want %d", res.Output, 2*g.M())
	}
	rounds := res.Stats.RoundBits
	if len(rounds) != 2 {
		t.Fatalf("RoundBits = %v", rounds)
	}
	if res.Stats.MaxMessageBits < rounds[0].PlayerMaxBits || res.Stats.MaxMessageBits < rounds[1].PlayerMaxBits {
		t.Error("MaxMessageBits below a round max")
	}
}

func TestTranscriptMessagesAreFreshReaders(t *testing.T) {
	g := gen.Path(3)
	p := echoProtocol{}
	res, err := runSequential[int](p, g, rng.NewPublicCoins(3))
	if err != nil {
		t.Fatal(err)
	}
	// Decode read every round-1 message once; a second Run must still
	// succeed (no shared reader state) — implicitly verified by rerunning.
	res2, err := runSequential[int](p, g, rng.NewPublicCoins(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != res2.Output {
		t.Error("reruns disagree")
	}
}

func TestRunToleratesNilWriters(t *testing.T) {
	g := gen.Path(4)
	res, err := runSequential[int](silentProtocol{}, g, rng.NewPublicCoins(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != 4 || res.Stats.MaxMessageBits != 0 || res.Stats.TotalBits != 0 {
		t.Errorf("silent run: %+v", res)
	}
}

type silentProtocol struct{}

func (silentProtocol) Name() string { return "silent" }
func (silentProtocol) Rounds() int  { return 1 }
func (silentProtocol) Broadcast(int, core.VertexView, *engine.Transcript, *rng.PublicCoins) (*bitio.Writer, error) {
	return nil, nil
}
func (silentProtocol) Decode(n int, _ *engine.Transcript, _ *rng.PublicCoins) (int, error) {
	return n, nil
}

// goroutineProbe is a silent one-round protocol that records the most
// goroutines alive during any of its Broadcast calls.
type goroutineProbe struct {
	silentProtocol
	mu   sync.Mutex
	peak int
}

func (p *goroutineProbe) Broadcast(int, core.VertexView, *engine.Transcript, *rng.PublicCoins) (*bitio.Writer, error) {
	live := runtime.NumGoroutine()
	p.mu.Lock()
	p.peak = max(p.peak, live)
	p.mu.Unlock()
	return nil, nil
}

// TestWorkersCappedAtShards checks that a round starts at most one
// worker per shard, however large Workers is, while the stats keep the
// resolved worker count. A 4-vertex path at Workers 1000 has 4 shards.
func TestWorkersCappedAtShards(t *testing.T) {
	p := &goroutineProbe{}
	before := runtime.NumGoroutine()
	_, stats, err := (&engine.Engine{Workers: 1000}).Execute(context.Background(), p, gen.Path(4), rng.NewPublicCoins(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 1000 || stats.Shards != 4 {
		t.Fatalf("Workers = %d, Shards = %d, want 1000 and 4", stats.Workers, stats.Shards)
	}
	// The slack covers goroutines the runtime or the test framework may
	// start meanwhile; an uncapped pool adds about a thousand.
	const slack = 4
	if extra := p.peak - before; extra > stats.Shards+slack {
		t.Errorf("%d goroutines beyond the test's own were live inside Broadcast, want at most %d", extra, stats.Shards+slack)
	}
}
