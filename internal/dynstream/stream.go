// Package dynstream adds the dynamic-graph workload the linear sketches
// were built for: seed-derived insert/delete edge streams, an incremental
// maintenance driver that pushes ±1 deltas through the ℓ₀ hot path (the
// columnar Bank/UpdateBlock path), and an epoch/checkpoint API so
// protocols can query sketch state at any stream prefix. Linearity makes
// deletions free — an insertion adds an edge's contribution to both
// endpoint sketches, a deletion subtracts it — so after any prefix the
// maintained sketches are bit-identical to sketching the materialized
// graph from scratch. That byte-level parity, at any worker count and
// any batching, is the package's determinism contract (maintain_test.go
// proves it epoch by epoch against a scalar reference).
//
// On top of the stream machinery the package registers the repository's
// first multi-pass protocol: a semi-streaming (1+ε)-approximate maximum
// matching (semistream.go) driven by the engine's adaptive referee
// feedback.
package dynstream

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Pattern names for Spec.Pattern.
const (
	// PatternChurn grows the graph to TargetEdges and then holds it
	// there under churn: each op deletes a uniform present edge with
	// probability Churn, otherwise inserts a uniform absent edge.
	PatternChurn = "churn"
	// PatternFillDrain is the adversarial net-zero pattern: the first
	// half of the ops inserts random absent edges, the second half
	// deletes random present edges, so every lane returns to net zero
	// by the final epoch (the materialized graph ends empty).
	PatternFillDrain = "fill-drain"
	// PatternBlink inserts a random absent edge and deletes the same
	// edge on the very next op, so the graph is empty at every even op
	// boundary — the worst case for stale cancelled state.
	PatternBlink = "blink"
)

// Op is one stream event: the insertion or deletion of edge {U, V}.
// Endpoints are not normalized (the generator emits them in random
// order); EdgeIndex and the graph materialization normalize.
type Op struct {
	Insert bool
	U, V   int
}

// Edge returns the op's edge in normalized form.
func (o Op) Edge() graph.Edge { return graph.NewEdge(o.U, o.V) }

// Spec fixes one deterministic dynamic-graph stream: the same spec always
// generates the same ops, the way gen's static generators are pure
// functions of their seed.
type Spec struct {
	// N is the vertex count.
	N int
	// Epochs is the number of checkpoint boundaries; the stream has
	// Epochs*OpsPerEpoch ops and epoch e ends after op (e+1)*OpsPerEpoch.
	Epochs int
	// OpsPerEpoch is the number of ops per epoch.
	OpsPerEpoch int
	// Pattern selects the generator: PatternChurn, PatternFillDrain or
	// PatternBlink.
	Pattern string
	// TargetEdges is the churn pattern's steady-state edge count;
	// ignored by the other patterns. Must leave headroom in the edge
	// universe (at most half of n(n-1)/2) so absent-edge rejection
	// sampling stays fast.
	TargetEdges int
	// Churn is the churn pattern's delete probability once edges exist;
	// ignored by the other patterns.
	Churn float64
	// Seed roots the generator's randomness.
	Seed uint64
}

// Validate rejects specs no generator run should attempt.
func (s Spec) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("dynstream: need n >= 2, got %d", s.N)
	}
	if s.Epochs < 1 || s.OpsPerEpoch < 1 {
		return fmt.Errorf("dynstream: need epochs >= 1 and ops per epoch >= 1, got %d and %d", s.Epochs, s.OpsPerEpoch)
	}
	maxEdges := s.N * (s.N - 1) / 2
	total := s.Epochs * s.OpsPerEpoch
	switch s.Pattern {
	case PatternChurn:
		if s.TargetEdges < 1 || s.TargetEdges > maxEdges/2 {
			return fmt.Errorf("dynstream: churn target %d outside [1, %d] for n=%d", s.TargetEdges, maxEdges/2, s.N)
		}
		if s.Churn < 0 || s.Churn > 1 || s.Churn != s.Churn {
			return fmt.Errorf("dynstream: churn probability %g outside [0,1]", s.Churn)
		}
	case PatternFillDrain:
		if total%2 != 0 {
			return fmt.Errorf("dynstream: fill-drain needs an even op count, got %d", total)
		}
		if total/2 > maxEdges/2 {
			return fmt.Errorf("dynstream: fill-drain fill phase %d exceeds half the edge universe %d", total/2, maxEdges/2)
		}
	case PatternBlink:
		if total%2 != 0 {
			return fmt.Errorf("dynstream: blink needs an even op count, got %d", total)
		}
	default:
		return fmt.Errorf("dynstream: unknown pattern %q", s.Pattern)
	}
	return nil
}

// Stream is a generated (or decoded) op sequence with epoch boundaries.
// Ops always describe a legal simple-graph evolution: inserts of absent
// edges, deletes of present edges, no loops.
type Stream struct {
	n           int
	opsPerEpoch int
	ops         []Op
}

// N returns the stream's vertex count.
func (s *Stream) N() int { return s.n }

// Len returns the total op count.
func (s *Stream) Len() int { return len(s.ops) }

// Epochs returns the number of epochs.
func (s *Stream) Epochs() int { return len(s.ops) / s.opsPerEpoch }

// OpsPerEpoch returns the epoch granularity.
func (s *Stream) OpsPerEpoch() int { return s.opsPerEpoch }

// EpochOps returns the ops of one epoch (a view, not a copy).
func (s *Stream) EpochOps(epoch int) []Op {
	lo, hi := epoch*s.opsPerEpoch, (epoch+1)*s.opsPerEpoch
	return s.ops[lo:hi]
}

// Ops returns all ops (a view, not a copy).
func (s *Stream) Ops() []Op { return s.ops }

// GraphAt materializes the net graph after the given epoch's last op —
// the from-scratch reference every incremental checkpoint must match.
func (s *Stream) GraphAt(epoch int) *graph.Graph {
	present := make(map[graph.Edge]bool)
	for _, op := range s.ops[:(epoch+1)*s.opsPerEpoch] {
		e := op.Edge()
		if op.Insert {
			present[e] = true
		} else {
			delete(present, e)
		}
	}
	edges := make([]graph.Edge, 0, len(present))
	for e := range present {
		edges = append(edges, e)
	}
	return graph.FromEdges(s.n, edges)
}

// FinalGraph materializes the net graph after the whole stream.
func (s *Stream) FinalGraph() *graph.Graph { return s.GraphAt(s.Epochs() - 1) }

// edgeSet tracks the present edges with O(1) uniform sampling and
// deterministic iteration-free updates (Go map iteration order never
// touches the op sequence).
type edgeSet struct {
	edges []graph.Edge
	pos   map[graph.Edge]int
}

func newEdgeSet() *edgeSet { return &edgeSet{pos: make(map[graph.Edge]int)} }

func (es *edgeSet) has(e graph.Edge) bool { _, ok := es.pos[e]; return ok }

func (es *edgeSet) add(e graph.Edge) {
	es.pos[e] = len(es.edges)
	es.edges = append(es.edges, e)
}

func (es *edgeSet) remove(e graph.Edge) {
	i := es.pos[e]
	last := len(es.edges) - 1
	es.edges[i] = es.edges[last]
	es.pos[es.edges[i]] = i
	es.edges = es.edges[:last]
	delete(es.pos, e)
}

func (es *edgeSet) len() int { return len(es.edges) }

// randomAbsent rejection-samples a uniform absent edge with endpoints in
// random order. Validate bounds the live-edge density at half the edge
// universe, so the expected number of rejections is below two.
func randomAbsent(n int, es *edgeSet, src *rng.Source) (int, int) {
	for {
		u, v := src.Intn(n), src.Intn(n)
		if u == v || es.has(graph.NewEdge(u, v)) {
			continue
		}
		return u, v
	}
}

// randomPresent picks a uniform present edge with endpoints in random
// order.
func randomPresent(es *edgeSet, src *rng.Source) (int, int) {
	e := es.edges[src.Intn(es.len())]
	if src.Bool() {
		return e.V, e.U
	}
	return e.U, e.V
}

// Generate derives the spec's op stream. The result is a pure function
// of the spec; every daemon and every local caller agree on the exact op
// sequence.
func Generate(spec Spec) (*Stream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	src := rng.NewPublicCoins(spec.Seed).Derive("dynstream-gen").Source()
	total := spec.Epochs * spec.OpsPerEpoch
	ops := make([]Op, 0, total)
	es := newEdgeSet()
	emit := func(insert bool, u, v int) {
		ops = append(ops, Op{Insert: insert, U: u, V: v})
		if insert {
			es.add(graph.NewEdge(u, v))
		} else {
			es.remove(graph.NewEdge(u, v))
		}
	}
	switch spec.Pattern {
	case PatternChurn:
		for len(ops) < total {
			del := es.len() > 0 && (es.len() >= spec.TargetEdges || src.Float64() < spec.Churn)
			if del {
				u, v := randomPresent(es, src)
				emit(false, u, v)
			} else {
				u, v := randomAbsent(spec.N, es, src)
				emit(true, u, v)
			}
		}
	case PatternFillDrain:
		for len(ops) < total/2 {
			u, v := randomAbsent(spec.N, es, src)
			emit(true, u, v)
		}
		for len(ops) < total {
			u, v := randomPresent(es, src)
			emit(false, u, v)
		}
	case PatternBlink:
		for len(ops) < total {
			u, v := randomAbsent(spec.N, es, src)
			emit(true, u, v)
			emit(false, u, v)
		}
	}
	return &Stream{n: spec.N, opsPerEpoch: spec.OpsPerEpoch, ops: ops}, nil
}
