package agm

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/dynstream"
	"repro/internal/graph"
	"repro/internal/rng"
)

// StreamSketcher maintains the AGM vertex sketches under a dynamic edge
// stream (insertions and deletions). Linearity makes this free: an
// insertion adds the edge's contribution to both endpoint sketches, a
// deletion subtracts it, and after any prefix of the stream the sketches
// are bit-identical to sketching the current graph from scratch — the
// connection to dynamic graph streams that the paper's related-work
// discussion leans on ([1], "dynamic streams"). The sketches live in a
// dynstream.Maintainer over the forest protocol's specs; the sketcher
// adds edge validation on top.
type StreamSketcher struct {
	n       int
	cfg     Config
	m       *dynstream.Maintainer
	op      [1]dynstream.Op // one-op batch scratch
	present map[uint64]bool
}

// NewStreamSketcher prepares sketches for an n-vertex evolving graph,
// using the same public coins a ForestProtocol referee would.
func NewStreamSketcher(n int, cfg Config, coins *rng.PublicCoins) *StreamSketcher {
	cfg = cfg.withDefaults(n)
	return &StreamSketcher{
		n:       n,
		cfg:     cfg,
		m:       dynstream.NewMaintainer(n, specs(n, cfg, coins), dynstream.Options{}),
		present: make(map[uint64]bool),
	}
}

// Insert adds edge {u, v}. Inserting a present edge is an error (the
// model is a simple graph).
func (s *StreamSketcher) Insert(u, v int) error { return s.update(u, v, true) }

// Delete removes edge {u, v}. Deleting an absent edge is an error.
func (s *StreamSketcher) Delete(u, v int) error { return s.update(u, v, false) }

func (s *StreamSketcher) update(u, v int, insert bool) error {
	if u == v || u < 0 || v < 0 || u >= s.n || v >= s.n {
		return fmt.Errorf("agm: stream update (%d,%d) out of range", u, v)
	}
	idx := edgeIndex(s.n, u, v)
	if insert && s.present[idx] {
		return fmt.Errorf("agm: stream insert of present edge (%d,%d)", u, v)
	}
	if !insert && !s.present[idx] {
		return fmt.Errorf("agm: stream delete of absent edge (%d,%d)", u, v)
	}
	s.present[idx] = insert
	s.op[0] = dynstream.Op{Insert: insert, U: u, V: v}
	s.m.ApplyBatch(s.op[:])
	return nil
}

// Edges returns the number of currently present edges.
func (s *StreamSketcher) Edges() int {
	count := 0
	for _, p := range s.present {
		if p {
			count++
		}
	}
	return count
}

// Sketch serializes vertex v's current sketch in exactly the
// ForestProtocol wire format.
func (s *StreamSketcher) Sketch(v int) *bitio.Writer {
	w := &bitio.Writer{}
	s.m.WriteVertex(w, v)
	return w
}

// SpanningForest decodes a spanning forest of the current graph from the
// maintained sketches, exactly as the one-round referee would. The
// sketcher remains usable afterwards (decoding works on serialized
// copies).
func (s *StreamSketcher) SpanningForest(coins *rng.PublicCoins) ([]graph.Edge, error) {
	p := NewSpanningForest(s.cfg)
	readers := make([]*bitio.Reader, s.n)
	for v := 0; v < s.n; v++ {
		readers[v] = bitio.ReaderFor(s.Sketch(v))
	}
	return p.Decode(s.n, readers, coins)
}
