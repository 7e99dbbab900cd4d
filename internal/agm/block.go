package agm

// Sketching for the AGM protocols, a chunk of up to blockLanes vertices
// at a time in an l0.Bank: each vertex's ±1 incidence updates are
// gathered once per chunk and replayed against every spec through
// Spec.UpdateBlock, appended to writers grown once by the encoding's
// exact fixed size, so serialization never reallocates.
//
// The entry points differ only in the writers they append to.
// SketchBlock runs a whole engine shard into fresh writers, whose
// buffers sealing takes. AppendSketch runs one lane into the caller's
// writer, so a protocol that concatenates several sketches into one
// message (mst, sparsify) writes each straight into it, and a warm
// AppendSketch into a writer with room allocates nothing. The per-vertex
// Sketch is AppendSketch over a fresh writer.
//
// block_test.go proves SketchBlock and Sketch emit the bits of the
// scalar reference sketcher in reference_test.go for every protocol; the
// mst-weight and agm-cut-sparsifier golden fixtures pin AppendSketch at
// unaligned offsets.

import (
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/l0"
	"repro/internal/rng"
)

var (
	_ core.BlockSketcher = (*ForestProtocol)(nil)
	_ core.BlockSketcher = (*ComponentsProtocol)(nil)
	_ core.BlockSketcher = (*SkeletonProtocol)(nil)
)

// blockLanes is the number of vertices banked per chunk. Large enough to
// amortize the per-spec bank reset and keep the spec's pow-table rows
// cache-hot across lanes, small enough that the bank's working set
// (3 slices × lanes × ~30 levels × 8 bytes ≈ 90 KiB) and the update
// scratch (a few 24-byte cells per lane, one per level up to its highest
// sampled one) stay in L2.
const blockLanes = 128

// blockArena is the reusable scratch of one sketching call: the bank,
// the gathered update list, and the per-lane checksum accumulators.
// Concurrent engine workers each take their own from arenaPool.
type blockArena struct {
	bank *l0.Bank
	upd  l0.BlockUpdates
	cs   []uint32
}

var arenaPool = sync.Pool{New: func() any { return &blockArena{bank: l0.NewBank()} }}

// begin starts one chunk: it grows every writer in ws by msgBits and
// gathers every vertex's incidence updates once, with the ±1 of the
// incidence vector encoded as a sign flag.
func (a *blockArena) begin(n int, chunk []core.VertexView, ws []*bitio.Writer, msgBits int) {
	for _, w := range ws {
		w.Grow(msgBits)
	}
	a.upd.Reset()
	for i, view := range chunk {
		for _, u := range view.Neighbors {
			a.upd.Add(i, edgeIndex(n, view.ID, u), view.ID > u)
		}
	}
}

// writeStack appends one sampler stack to every lane's writer: specs in
// order, each spec's cells in level order. With withChecksum the
// per-lane stack checksums accumulate into a.cs (reset here), folded
// with foldChecksum over l0.Bank.LaneChecksum.
func (a *blockArena) writeStack(ws []*bitio.Writer, sps []l0.Spec, withChecksum bool) {
	if withChecksum {
		if cap(a.cs) < len(ws) {
			a.cs = make([]uint32, len(ws))
		} else {
			a.cs = a.cs[:len(ws)]
		}
		clear(a.cs)
	}
	for _, sp := range sps {
		a.bank.Reset(sp.Levels(), len(ws))
		sp.UpdateBlock(a.bank, &a.upd)
		for lane, w := range ws {
			a.bank.WriteLane(w, lane)
			if withChecksum {
				a.cs[lane] = foldChecksum(a.cs[lane], a.bank.LaneChecksum(lane))
			}
		}
	}
}

// stackBits returns the fixed serialized size of one sampler stack.
func stackBits(sps []l0.Spec) int {
	bits := 0
	for _, sp := range sps {
		bits += sp.Levels() * 3 * 61
	}
	return bits
}

// sketch appends the forest message of every view to the writer at the
// same index of out: the primary stack, and under BackupReps the
// checksums and backup stack.
func (p *ForestProtocol) sketch(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer) {
	if len(views) == 0 {
		return
	}
	n := views[0].N
	cfg := p.cfg.withDefaults(n)
	primary := specs(n, cfg, coins)
	var backup []l0.Spec
	if cfg.BackupReps > 0 {
		backup = backupSpecs(n, cfg, coins)
	}
	msgBits := p.SketchBits(n, coins)
	a := arenaPool.Get().(*blockArena)
	defer arenaPool.Put(a)
	for lo := 0; lo < len(views); lo += blockLanes {
		hi := min(lo+blockLanes, len(views))
		ws := out[lo:hi]
		a.begin(n, views[lo:hi], ws, msgBits)
		if cfg.BackupReps > 0 {
			a.writeStack(ws, primary, true)
			for i, w := range ws {
				w.WriteUint(uint64(a.cs[i]), 32)
			}
			a.writeStack(ws, backup, true)
			for i, w := range ws {
				w.WriteUint(uint64(a.cs[i]), 32)
			}
		} else {
			// The classic encoding carries no checksum, so none is
			// computed: hashing every cell of every sketch is a
			// measurable fraction of the per-vertex cost at large n.
			a.writeStack(ws, primary, false)
		}
	}
}

// SketchBits returns the fixed length in bits of one vertex's sketch on
// an n-vertex graph under coins.
func (p *ForestProtocol) SketchBits(n int, coins *rng.PublicCoins) int {
	cfg := p.cfg.withDefaults(n)
	bits := stackBits(specs(n, cfg, coins))
	if cfg.BackupReps > 0 {
		bits += 32 + stackBits(backupSpecs(n, cfg, coins)) + 32
	}
	return bits
}

// AppendSketch appends the bits Sketch(view, coins) returns to w.
func (p *ForestProtocol) AppendSketch(w *bitio.Writer, view core.VertexView, coins *rng.PublicCoins) {
	views, out := [1]core.VertexView{view}, [1]*bitio.Writer{w}
	p.sketch(views[:], coins, out[:])
}

// SketchBlock implements core.BlockSketcher for the spanning forest.
func (p *ForestProtocol) SketchBlock(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	p.sketch(views, coins, newWriters(out))
	return 0, nil
}

// newWriters points every slot of out at a fresh empty writer and
// returns out.
func newWriters(out []*bitio.Writer) []*bitio.Writer {
	for i := range out {
		out[i] = &bitio.Writer{}
	}
	return out
}

// SketchBlock implements core.BlockSketcher by delegating to the forest
// sketch, exactly as Sketch does.
func (p *ComponentsProtocol) SketchBlock(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	return p.forest.SketchBlock(views, coins, out)
}

// sketch appends the skeleton message of every view to the writer at
// the same index of out: the K groups' stacks in group order.
func (p *SkeletonProtocol) sketch(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer) error {
	if p.K < 1 {
		return fmt.Errorf("agm: skeleton needs K >= 1, got %d", p.K)
	}
	if len(views) == 0 {
		return nil
	}
	n := views[0].N
	cfg := p.Forest.withDefaults(n)
	msgBits := p.SketchBits(n, coins)
	a := arenaPool.Get().(*blockArena)
	defer arenaPool.Put(a)
	for lo := 0; lo < len(views); lo += blockLanes {
		hi := min(lo+blockLanes, len(views))
		ws := out[lo:hi]
		a.begin(n, views[lo:hi], ws, msgBits)
		for g := 0; g < p.K; g++ {
			a.writeStack(ws, groupStack(n, cfg, coins, g), false)
		}
	}
	return nil
}

// AppendSketch appends the bits Sketch(view, coins) returns to w.
func (p *SkeletonProtocol) AppendSketch(w *bitio.Writer, view core.VertexView, coins *rng.PublicCoins) error {
	views, out := [1]core.VertexView{view}, [1]*bitio.Writer{w}
	return p.sketch(views[:], coins, out[:])
}

// SketchBlock implements core.BlockSketcher for the k-forest skeleton.
func (p *SkeletonProtocol) SketchBlock(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	return 0, p.sketch(views, coins, newWriters(out))
}
