// Package cclique simulates the broadcast congested clique model: in each
// round every player broadcasts one message computed from its local view,
// the public coins, and the transcript of all previous rounds; after the
// last round a referee (equivalently, any player) computes the output from
// the full transcript.
//
// Restricted to one round with a referee-only output, this model is
// exactly the paper's distributed sketching model (Section 1.1 and [30,
// 39]); the adapter OneRound and experiment E12 exercise that equivalence.
// Multi-round protocols are the escape hatch the paper points to in
// Section 1.1: with one extra adaptive round, maximal matching and MIS
// admit O(√n·polylog n)-bit messages ([46], [35]), implemented in
// packages matchproto and misproto.
package cclique

import (
	"context"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Transcript gives read access to all broadcasts of completed rounds. It
// is the engine's sealed transcript: rounds are immutable once visible
// (see engine.Transcript for the full guarantee).
type Transcript = engine.Transcript

// Protocol is a multi-round broadcast protocol with output type O.
type Protocol[O any] interface {
	// Name identifies the protocol in tables.
	Name() string
	// Rounds is the total number of broadcast rounds.
	Rounds() int
	// Broadcast computes player view.ID's message for the given round;
	// transcript holds every earlier round.
	Broadcast(round int, view core.VertexView, transcript *Transcript, coins *rng.PublicCoins) (*bitio.Writer, error)
	// Decode computes the output from the complete transcript.
	Decode(n int, transcript *Transcript, coins *rng.PublicCoins) (O, error)
}

// Result reports one execution.
type Result[O any] struct {
	Output O
	// MaxMessageBits is the worst-case single message length over all
	// rounds and players.
	MaxMessageBits int
	// RoundMaxBits[r] is the worst-case message length within round r.
	RoundMaxBits []int
	// TotalBits is the sum of all message lengths.
	TotalBits int
}

// Run executes the protocol on g. It is a thin wrapper over a one-worker
// execution engine, so it is bit-identical to every parallel engine run;
// callers who want concurrency or metrics use package engine directly.
func Run[O any](p Protocol[O], g *graph.Graph, coins *rng.PublicCoins) (Result[O], error) {
	eng := &engine.Engine{Workers: 1}
	er, err := engine.Run[O](context.Background(), eng, p, g, coins)
	res := Result[O]{
		Output:         er.Output,
		MaxMessageBits: er.Stats.MaxMessageBits,
		RoundMaxBits:   er.Stats.RoundMaxBits,
		TotalBits:      int(er.Stats.TotalBits),
	}
	if res.RoundMaxBits == nil {
		res.RoundMaxBits = make([]int, 0, p.Rounds())
	}
	for len(res.RoundMaxBits) < p.Rounds() {
		res.RoundMaxBits = append(res.RoundMaxBits, 0)
	}
	return res, err
}

// OneRound adapts a one-round sketching protocol (package core) to the
// broadcast congested clique, witnessing the models' equivalence for
// one-round computations.
type OneRound[O any] struct {
	P core.Protocol[O]
}

var _ Protocol[int] = (*OneRound[int])(nil)

// Name implements Protocol.
func (a *OneRound[O]) Name() string { return a.P.Name() + "/bcc" }

// Rounds implements Protocol.
func (a *OneRound[O]) Rounds() int { return 1 }

// Broadcast implements Protocol.
func (a *OneRound[O]) Broadcast(_ int, view core.VertexView, _ *Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return a.P.Sketch(view, coins)
}

// BroadcastBlock implements engine.BlockBroadcaster: when the wrapped
// protocol is a core.BlockSketcher the whole block goes through its
// columnar path; otherwise it falls back to per-view Sketch calls, which
// is byte-identical to the engine's own per-vertex loop. Either way the
// per-vertex and block executions produce the same transcript bits.
func (a *OneRound[O]) BroadcastBlock(_ int, views []core.VertexView, _ *Transcript, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	if bs, ok := a.P.(core.BlockSketcher); ok {
		return bs.SketchBlock(views, coins, out)
	}
	for i, view := range views {
		w, err := a.P.Sketch(view, coins)
		if err != nil {
			return i, err
		}
		out[i] = w
	}
	return 0, nil
}

// Decode implements Protocol.
func (a *OneRound[O]) Decode(n int, transcript *Transcript, coins *rng.PublicCoins) (O, error) {
	readers := make([]*bitio.Reader, n)
	for v := 0; v < n; v++ {
		readers[v] = transcript.Message(0, v)
	}
	return a.P.Decode(n, readers, coins)
}

// DecodeResilient lifts the wrapped protocol's resilient decode (when it
// has one) to the transcript level, so faults.Run can degrade gracefully
// over damaged one-round transcripts. When the wrapped protocol is not
// resilience-aware, it falls back to the strict Decode: a clean decode
// reports ok (faults.Run's channel-record folding still demotes it if
// faults were injected) and a decode error reports failed.
func (a *OneRound[O]) DecodeResilient(n int, transcript *Transcript, coins *rng.PublicCoins) (O, core.Resilience, error) {
	readers := make([]*bitio.Reader, n)
	for v := 0; v < n; v++ {
		readers[v] = transcript.Message(0, v)
	}
	if rp, ok := a.P.(core.ResilientProtocol[O]); ok {
		return rp.DecodeResilient(n, readers, coins)
	}
	out, err := a.P.Decode(n, readers, coins)
	if err != nil {
		return out, core.ResilienceFailed, err
	}
	return out, core.ResilienceOK, nil
}
