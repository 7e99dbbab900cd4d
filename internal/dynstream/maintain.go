package dynstream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/l0"
	"repro/internal/rng"
)

// EdgeIndex maps edge {u, v} of an n-vertex graph into the n² incidence
// universe — the same min·n+max convention the AGM sketches use, so
// maintained sketches are interchangeable with statically-built ones.
func EdgeIndex(n, u, v int) uint64 {
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(lo)*uint64(n) + uint64(hi)
}

// Samplers derives a stack of ℓ₀-sampler specs over the n² edge-incidence
// universe from public coins — the maintenance analogue of a protocol's
// per-repetition sampler derivation. Two parties deriving from the same
// coins obtain interchangeable stacks.
func Samplers(n, count int, coins *rng.PublicCoins) []l0.Spec {
	universe := uint64(n) * uint64(n)
	c := coins.Derive("dynstream-samplers")
	specs := make([]l0.Spec, count)
	for i := range specs {
		specs[i] = l0.NewSpec(universe, c.DeriveIndex(i))
	}
	return specs
}

// Options configures a Maintainer's execution. Like the engine's
// Workers knob, it cannot change a checkpoint bit — it is a throughput
// lever only, and maintain_test.go holds it to that.
type Options struct {
	// Workers is the number of concurrent apply workers; <= 0 selects 1.
	// Vertices are sharded into contiguous ranges, one per worker, and
	// every worker scans the whole batch applying only its own lanes, so
	// each vertex's update order equals the op order regardless of the
	// worker count.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 1
}

// Maintainer holds the per-vertex ℓ₀ sketch stacks of an evolving
// n-vertex graph and applies insert/delete batches incrementally. The
// incidence convention matches the AGM sketches: edge {u,v} contributes
// +1 at EdgeIndex to the smaller endpoint's vector and −1 to the larger
// endpoint's, so a deletion is the same update with flipped signs and a
// referee summing a component's sketches sees internal edges cancel.
type Maintainer struct {
	n     int
	specs []l0.Spec
	opts  Options

	// banks[i] holds all n lanes of specs[i]; updates[w] is worker w's
	// reusable gather scratch.
	banks   []*l0.Bank
	updates []*l0.BlockUpdates

	applied int // ops applied so far
}

// NewMaintainer returns the all-zero maintainer state for an n-vertex
// graph under the given sampler stack.
func NewMaintainer(n int, specs []l0.Spec, opts Options) *Maintainer {
	m := &Maintainer{n: n, specs: specs, opts: opts}
	m.banks = make([]*l0.Bank, len(specs))
	for i, sp := range specs {
		m.banks[i] = l0.NewBank()
		m.banks[i].Reset(sp.Levels(), n)
	}
	m.updates = make([]*l0.BlockUpdates, opts.workers())
	for w := range m.updates {
		m.updates[w] = &l0.BlockUpdates{}
	}
	return m
}

// N returns the vertex count.
func (m *Maintainer) N() int { return m.n }

// Applied returns the number of ops applied so far.
func (m *Maintainer) Applied() int { return m.applied }

// ApplyBatch applies one batch of ops. Each op touches two lanes (±1 at
// the edge's incidence index, opposite signs at the two endpoints);
// lanes are sharded contiguously across the configured workers. The ops
// must describe a legal evolution of the current graph; Generate and
// DecodeStream both guarantee that, so no per-op validation happens
// here beyond the universe check inside l0.
func (m *Maintainer) ApplyBatch(ops []Op) {
	workers := m.opts.workers()
	if workers > m.n {
		workers = m.n
	}
	if workers <= 1 {
		m.applyRange(0, 0, m.n, ops)
	} else {
		var wg sync.WaitGroup
		per := (m.n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * per
			hi := min(lo+per, m.n)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				m.applyRange(w, lo, hi, ops)
			}(w, lo, hi)
		}
		wg.Wait()
	}
	m.applied += len(ops)
}

// applyRange gathers the batch's updates for lanes in [lo, hi) and
// flushes them through every spec's UpdateBlock. Workers write disjoint
// lane ranges of the shared banks, so concurrent calls never touch the
// same memory.
func (m *Maintainer) applyRange(worker, lo, hi int, ops []Op) {
	upd := m.updates[worker]
	upd.Reset()
	for _, op := range ops {
		idx := EdgeIndex(m.n, op.U, op.V)
		small, large := op.U, op.V
		if small > large {
			small, large = large, small
		}
		if small >= lo && small < hi {
			upd.Add(small, idx, !op.Insert) // smaller endpoint: +1 on insert
		}
		if large >= lo && large < hi {
			upd.Add(large, idx, op.Insert) // larger endpoint: −1 on insert
		}
	}
	if upd.Len() == 0 {
		return
	}
	for i, sp := range m.specs {
		sp.UpdateBlock(m.banks[i], upd)
	}
}

// WriteVertex appends vertex v's current sketch stack (all specs in
// order) to w, in the wire layout of a one-round AGM sketch.
func (m *Maintainer) WriteVertex(w *bitio.Writer, v int) {
	for _, b := range m.banks {
		b.WriteLane(w, v)
	}
}

// Checkpoint snapshots the current sketch state: one serialized sketch
// stack per vertex plus the matching per-vertex checksums. Checkpoints
// are immutable and independent of later ApplyBatch calls.
type Checkpoint struct {
	// Ops is the stream-prefix length (ops applied) the snapshot covers.
	Ops   int
	bufs  [][]byte
	nbits []int
	sums  []uint32
}

// Checkpoint snapshots the maintainer's current state.
func (m *Maintainer) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		Ops:   m.applied,
		bufs:  make([][]byte, m.n),
		nbits: make([]int, m.n),
		sums:  make([]uint32, m.n),
	}
	for v := 0; v < m.n; v++ {
		w := &bitio.Writer{}
		m.WriteVertex(w, v)
		c.bufs[v] = append([]byte(nil), w.Bytes()...)
		c.nbits[v] = w.Len()
		c.sums[v] = m.vertexChecksum(v)
	}
	return c
}

// vertexChecksum folds the per-spec lane checksums of one vertex into a
// single word.
func (m *Maintainer) vertexChecksum(v int) uint32 {
	var h uint32
	for _, b := range m.banks {
		h = h*0x01000193 ^ b.LaneChecksum(v)
	}
	return h
}

// Players returns the number of per-vertex entries.
func (c *Checkpoint) Players() int { return len(c.bufs) }

// Vertex returns a fresh reader over vertex v's serialized sketch stack.
func (c *Checkpoint) Vertex(v int) *bitio.Reader {
	return bitio.NewReader(c.bufs[v], c.nbits[v])
}

// BitLen returns the serialized length of vertex v's stack in bits.
func (c *Checkpoint) BitLen(v int) int { return c.nbits[v] }

// Checksum returns vertex v's folded sketch checksum.
func (c *Checkpoint) Checksum(v int) uint32 { return c.sums[v] }

// Digest content-addresses the checkpoint: SHA-256 over every vertex's
// length-framed sketch bytes. Two checkpoints are byte-identical exactly
// when their digests agree, which is what the epoch-parity tests (and
// E50's parity column) compare.
func (c *Checkpoint) Digest() string {
	h := sha256.New()
	var frame [8]byte
	for v := range c.bufs {
		binary.LittleEndian.PutUint64(frame[:], uint64(c.nbits[v]))
		h.Write(frame[:])
		h.Write(c.bufs[v])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Run is one processed stream: the maintainer's checkpoint at every
// epoch boundary, in order — the epoch/checkpoint API protocols use to
// query sketches at any stream prefix.
type Run struct {
	Stream      *Stream
	Checkpoints []*Checkpoint
}

// At returns the checkpoint after the given epoch.
func (r *Run) At(epoch int) *Checkpoint { return r.Checkpoints[epoch] }

// Process applies the whole stream epoch by epoch, checkpointing at
// every epoch boundary.
func Process(s *Stream, specs []l0.Spec, opts Options) *Run {
	m := NewMaintainer(s.N(), specs, opts)
	run := &Run{Stream: s, Checkpoints: make([]*Checkpoint, 0, s.Epochs())}
	for e := 0; e < s.Epochs(); e++ {
		m.ApplyBatch(s.EpochOps(e))
		run.Checkpoints = append(run.Checkpoints, m.Checkpoint())
	}
	return run
}

// Rebuild sketches a materialized graph from scratch (single worker,
// edges in sorted graph order, inserts only) and returns the resulting
// checkpoint — the from-scratch state incremental maintenance must
// match byte for byte. Linearity is what makes the comparison fair: the
// sketch of the net graph does not depend on the update order or on
// cancelled edges, so any legal stream prefix with this net graph must
// land on exactly these bytes.
func Rebuild(g *graph.Graph, specs []l0.Spec) *Checkpoint {
	m := NewMaintainer(g.N(), specs, Options{})
	edges := g.Edges()
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{Insert: true, U: e.U, V: e.V}
	}
	m.ApplyBatch(ops)
	return m.Checkpoint()
}

// VerifyEpochParity checks a processed run's checkpoints against
// from-scratch rebuilds of the materialized graph at every epoch,
// returning the first divergence as an error.
func VerifyEpochParity(run *Run, specs []l0.Spec) error {
	for e, c := range run.Checkpoints {
		want := Rebuild(run.Stream.GraphAt(e), specs)
		if c.Digest() != want.Digest() {
			return fmt.Errorf("dynstream: epoch %d checkpoint diverges from rebuild (%s != %s)",
				e, c.Digest()[:12], want.Digest()[:12])
		}
	}
	return nil
}
