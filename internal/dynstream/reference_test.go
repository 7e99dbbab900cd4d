package dynstream

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/l0"
)

// The scalar rebuild the bank-backed Maintainer replaced, kept as the
// reference its checkpoints must match: every vertex's stack is
// sketched from scratch, one l0.Sketch per (vertex, spec) and one
// Spec.Update per incident edge, serialized bit by bit with
// Sketch.Write, and checksummed by reading the cells back element by
// element.

// refRebuild returns the reference checkpoint of a materialized graph.
func refRebuild(g *graph.Graph, specs []l0.Spec) *Checkpoint {
	n := g.N()
	c := &Checkpoint{bufs: make([][]byte, n), nbits: make([]int, n), sums: make([]uint32, n)}
	for v := 0; v < n; v++ {
		w := &bitio.Writer{}
		var sum uint32
		for _, sp := range specs {
			sk := sp.AcquireSketch()
			for _, u := range g.Neighbors(v) {
				delta := int64(1) // smaller endpoint: +1
				if v > u {
					delta = -1
				}
				sp.Update(sk, EdgeIndex(n, v, u), delta)
			}
			start := w.Len()
			sk.Write(w)
			l0.ReleaseSketch(sk)
			r := bitio.ReaderFor(w)
			if err := r.Skip(start); err != nil {
				panic(err)
			}
			sum = sum*0x01000193 ^ refSketchChecksum(r, sp.Levels())
		}
		c.bufs[v], c.nbits[v], c.sums[v] = w.Bytes(), w.Len(), sum
	}
	return c
}

// refSketchChecksum restates Bank.LaneChecksum's FNV-1a fold over one
// serialized sketch of the given level count.
func refSketchChecksum(r *bitio.Reader, levels int) uint32 {
	h := uint64(0xcbf29ce484222325)
	for k := 0; k < 3*levels; k++ {
		v, err := r.ReadUint(61)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x00000100000001b3
			v >>= 8
		}
	}
	return uint32(h) ^ uint32(h>>32)
}

// diffCheckpoint reports the first difference between two checkpoints:
// their digests, then each vertex's checksum.
func diffCheckpoint(got, want *Checkpoint) error {
	if got.Digest() != want.Digest() {
		return fmt.Errorf("digest %s, want %s", got.Digest()[:12], want.Digest()[:12])
	}
	for v := 0; v < want.Players(); v++ {
		if got.Checksum(v) != want.Checksum(v) {
			return fmt.Errorf("vertex %d checksum %#x, want %#x", v, got.Checksum(v), want.Checksum(v))
		}
	}
	return nil
}
