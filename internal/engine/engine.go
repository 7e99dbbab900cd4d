// Package engine executes broadcast protocols concurrently while staying
// bit-identical to a sequential run.
//
// The paper's model is n players speaking *simultaneously* each round:
// player v's message depends only on (round, v's view, the sealed
// transcript of earlier rounds, the public coins). Per-round work is
// therefore embarrassingly parallel by construction, and because every
// per-vertex coin stream is derived from labels (rng.PublicCoins), not
// from a shared mutable generator, execution order cannot change any
// transcript bit. The engine exploits that: each round it shards the
// vertex range across a worker pool, waits at a round barrier, seals the
// round into the immutable Transcript, and only then starts the next
// round.
//
// Determinism contract: for a fixed (protocol, graph, coins), the
// transcript, the output, and every bit-accounting field of RunStats are
// identical for every Workers/ShardSize setting. Only wall-time fields
// and PeakInFlight describe the particular execution. The golden test in
// engine_test.go enforces this against an independent sequential
// reference.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Broadcaster is the broadcast-phase half of a protocol: everything the
// engine needs to build a transcript. Any Protocol[O] satisfies it.
type Broadcaster interface {
	// Name identifies the protocol in stats and tables.
	Name() string
	// Rounds is the total number of broadcast rounds.
	Rounds() int
	// Broadcast computes player view.ID's message for the given round;
	// transcript holds every earlier (sealed) round. Broadcast must be
	// safe for concurrent calls within a round and must derive any
	// randomness from coins labels, never from shared mutable state.
	// The engine takes the returned writer: sealing the round moves its
	// buffer into the transcript and leaves it empty, so the protocol
	// must not keep slices of its bytes.
	Broadcast(round int, view core.VertexView, transcript *Transcript, coins *rng.PublicCoins) (*bitio.Writer, error)
}

// Protocol is a broadcast protocol with output type O, run in the
// broadcast congested clique: each round every player broadcasts one
// message, and after the last round a referee computes the output from
// the full transcript. It is the one protocol contract of the
// repository. A one-round protocol whose output only the referee
// computes is exactly a sketching protocol (the paper's §2.1);
// protocol.OneRound embeds every core.Protocol this way. Multi-round
// protocols are the §1.1 escape hatch (matchproto, misproto, dynstream).
// The optional extensions are BlockBroadcaster, Adaptive and
// ResilientProtocol.
type Protocol[O any] interface {
	Broadcaster
	// Decode computes the output from the complete transcript.
	Decode(n int, transcript *Transcript, coins *rng.PublicCoins) (O, error)
}

// ResilientProtocol is a Protocol whose referee can decode a damaged
// transcript with graceful degradation. It is the transcript-level
// analogue of core.ResilientProtocol; protocol.OneRound lifts the latter
// into this interface, and faults.Run decodes through it.
type ResilientProtocol[O any] interface {
	Protocol[O]
	// DecodeResilient is Decode over a possibly-damaged transcript. It
	// must not report core.ResilienceOK unless every message of every
	// round parsed cleanly.
	DecodeResilient(n int, transcript *Transcript, coins *rng.PublicCoins) (O, core.Resilience, error)
}

// Adaptive is the optional referee-feedback extension of Broadcaster: an
// adaptive protocol's referee broadcasts a feedback message after each
// round barrier, and later Broadcast calls read it from the sealed
// transcript (Transcript.Feedback) instead of each player re-deriving the
// shared referee state privately. This is the model's "extra round of
// adaptivity" (the O(√n·polylog n) two-round MM/MIS upper bounds): the
// downlink is free in the per-player communication measure, but it is
// accounted separately in RunStats (FeedbackBits, RoundBits).
//
// The engine calls Feedback exactly once per round, single-threaded, after
// the round has sealed and before the next round's broadcasts start — so
// Feedback may freely read every sealed round and needs no locking. It
// must be a pure function of (round, transcript, coins) for the
// determinism contract to extend to adaptive protocols. Returning a nil
// (or empty) writer means the referee is silent after that round; a
// protocol that is silent after every round is indistinguishable — in
// transcript bytes and in stats — from a non-adaptive one.
type Adaptive interface {
	Broadcaster
	// Feedback computes the referee's broadcast after the given sealed
	// round. The engine takes the writer as it takes Broadcast's and
	// seals it into the transcript's feedback lane
	// (Transcript.SealFeedback).
	Feedback(round int, transcript *Transcript, coins *rng.PublicCoins) (*bitio.Writer, error)
}

// Engine schedules protocol executions over a worker pool. The zero value
// is ready to use and runs with GOMAXPROCS workers.
type Engine struct {
	// Workers is the number of concurrent broadcast workers; <= 0 selects
	// runtime.GOMAXPROCS(0). A round starts at most one worker per
	// shard. Workers never changes results, only speed.
	Workers int
	// ShardSize is the number of consecutive vertices dispatched to a
	// worker as one unit; <= 0 selects a size that yields ~8 shards per
	// worker for load balance. ShardSize never changes results.
	ShardSize int
}

// workerCount resolves the effective worker count.
func (e *Engine) workerCount() int {
	if e != nil && e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shardSizeFor resolves the effective shard size for n vertices.
func (e *Engine) shardSizeFor(n, workers int) int {
	if e != nil && e.ShardSize > 0 {
		return e.ShardSize
	}
	if workers == 1 {
		return max(1, n)
	}
	return max(1, (n+8*workers-1)/(8*workers))
}

// Result reports one execution: the decoded output plus full run metrics.
type Result[O any] struct {
	Output O
	Stats  RunStats
}

// runError carries the first (lowest round, lowest vertex) Broadcast
// failure, so error reporting is deterministic under concurrency.
type runError struct {
	mu     sync.Mutex
	round  int
	vertex int
	err    error
}

func (f *runError) record(round, vertex int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil || round < f.round || (round == f.round && vertex < f.vertex) {
		f.round, f.vertex, f.err = round, vertex, err
	}
}

func (f *runError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		return nil
	}
	return fmt.Errorf("engine: round %d player %d: %w", f.round, f.vertex, f.err)
}

// Execute runs the broadcast phase only: all rounds of p over g, sharded
// across the pool, returning the sealed transcript and its metrics. On a
// Broadcast error or context cancellation the run stops at the current
// round's barrier and the partial transcript and stats (every fully
// sealed round) are still returned alongside the error.
func (e *Engine) Execute(ctx context.Context, p Broadcaster, g *graph.Graph, coins *rng.PublicCoins) (*Transcript, *RunStats, error) {
	start := time.Now()
	views := core.Views(g)
	n := len(views)
	workers := e.workerCount()
	shardSize := e.shardSizeFor(n, workers)
	shards := 0
	if n > 0 {
		shards = (n + shardSize - 1) / shardSize
	}

	stats := &RunStats{
		Protocol:  p.Name(),
		N:         n,
		Rounds:    p.Rounds(),
		Workers:   workers,
		ShardSize: shardSize,
		Shards:    shards,
	}
	reg := &registry{}
	transcript := NewTranscript()
	adaptive, _ := p.(Adaptive)
	block, _ := p.(BlockBroadcaster)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	finish := func(err error) (*Transcript, *RunStats, error) {
		reg.snapshot(stats)
		stats.BroadcastWall = time.Since(start)
		stats.TotalWall = stats.BroadcastWall
		return transcript, stats, err
	}

	for round := 0; round < p.Rounds(); round++ {
		roundStart := time.Now()
		msgs := make([]*bitio.Writer, n)
		firstErr := &runError{}

		type shard struct{ lo, hi int }
		jobs := make(chan shard)
		var wg sync.WaitGroup
		for w := 0; w < min(workers, shards); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sh := range jobs {
					shardStart := time.Now()
					if block != nil {
						// Columnar fast path: the whole shard in one call.
						// Transcript bytes are identical to the per-vertex
						// loop below by the BlockBroadcaster contract.
						if ctx.Err() != nil {
							reg.shardWall.Record(time.Since(shardStart))
							continue
						}
						reg.inFlight.Enter()
						bad, err := block.BroadcastBlock(round, views[sh.lo:sh.hi], transcript, coins, msgs[sh.lo:sh.hi])
						reg.inFlight.Exit()
						if err != nil {
							firstErr.record(round, sh.lo+bad, err)
							cancel()
						} else {
							reg.broadcasts.Add(int64(sh.hi - sh.lo))
						}
						reg.shardWall.Record(time.Since(shardStart))
						continue
					}
					for v := sh.lo; v < sh.hi; v++ {
						if ctx.Err() != nil {
							break
						}
						reg.inFlight.Enter()
						w, err := p.Broadcast(round, views[v], transcript, coins)
						reg.inFlight.Exit()
						if err != nil {
							firstErr.record(round, v, err)
							cancel()
							break
						}
						msgs[v] = w
						reg.broadcasts.Add(1)
					}
					reg.shardWall.Record(time.Since(shardStart))
				}
			}()
		}
		for lo := 0; lo < n; lo += shardSize {
			jobs <- shard{lo: lo, hi: min(lo+shardSize, n)}
		}
		close(jobs)
		wg.Wait()

		if err := firstErr.get(); err != nil {
			return finish(err)
		}
		if err := ctx.Err(); err != nil {
			return finish(fmt.Errorf("engine: round %d: %w", round, err))
		}

		// Deterministic bit accounting in vertex order, then seal.
		roundMax := 0
		var roundTotal int64
		for _, w := range msgs {
			l := 0
			if w != nil {
				l = w.Len()
			}
			if l == 0 {
				reg.empty.Add(1)
			}
			reg.hist.Observe(l)
			if l > roundMax {
				roundMax = l
			}
			roundTotal += int64(l)
		}
		transcript.SealRound(msgs)

		// Referee feedback: computed single-threaded at the round barrier
		// over the freshly sealed round, then sealed into the transcript's
		// feedback lane so the next round's concurrent Broadcast calls can
		// read it. Feedback bits are accounted separately from player bits
		// — MaxMessageBits/TotalBits stay player-only communication.
		feedbackBits := 0
		var feedbackErr error
		if adaptive != nil {
			fb, err := adaptive.Feedback(round, transcript, coins)
			if err != nil {
				feedbackErr = fmt.Errorf("engine: feedback after round %d: %w", round, err)
			} else {
				if fb != nil {
					feedbackBits = fb.Len()
				}
				transcript.SealFeedback(fb)
			}
		}

		stats.CompletedRounds++
		stats.RoundMaxBits = append(stats.RoundMaxBits, roundMax)
		stats.RoundTotalBits = append(stats.RoundTotalBits, roundTotal)
		stats.TotalBits += roundTotal
		if roundMax > stats.MaxMessageBits {
			stats.MaxMessageBits = roundMax
		}
		stats.RoundBits = append(stats.RoundBits, RoundStats{
			PlayerBits:    roundTotal,
			PlayerMaxBits: roundMax,
			FeedbackBits:  feedbackBits,
		})
		stats.FeedbackBits += int64(feedbackBits)
		stats.RoundWall = append(stats.RoundWall, time.Since(roundStart))
		if feedbackErr != nil {
			return finish(feedbackErr)
		}
	}
	return finish(nil)
}

// Run executes p on g end to end: the sharded broadcast phase followed by
// the referee's Decode over the sealed transcript. It is a package
// function rather than a method only because Go methods cannot carry type
// parameters.
func Run[O any](ctx context.Context, e *Engine, p Protocol[O], g *graph.Graph, coins *rng.PublicCoins) (Result[O], error) {
	res, _, err := RunWithTranscript(ctx, e, p, g, coins)
	return res, err
}

// RunWithTranscript is Run, additionally returning the sealed transcript
// the referee decoded. The service layer (internal/wire, internal/server)
// uses it to ship the exact transcript to remote callers; on error the
// partial transcript (every fully sealed round) is still returned.
func RunWithTranscript[O any](ctx context.Context, e *Engine, p Protocol[O], g *graph.Graph, coins *rng.PublicCoins) (Result[O], *Transcript, error) {
	start := time.Now()
	transcript, stats, err := e.Execute(ctx, p, g, coins)
	res := Result[O]{Stats: *stats}
	if err != nil {
		res.Stats.TotalWall = time.Since(start)
		return res, transcript, err
	}
	decodeStart := time.Now()
	out, err := p.Decode(g.N(), transcript, coins)
	res.Stats.DecodeWall = time.Since(decodeStart)
	res.Stats.TotalWall = time.Since(start)
	if err != nil {
		return res, transcript, fmt.Errorf("engine: decode: %w", err)
	}
	res.Output = out
	return res, transcript, nil
}
