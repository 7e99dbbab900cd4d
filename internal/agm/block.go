package agm

// Sketching for the AGM protocols, a chunk of up to blockLanes vertices
// at a time in an l0.Bank: each vertex's ±1 incidence updates are
// gathered once per chunk and replayed against every spec through
// Spec.UpdateBlock, into writers pre-grown to the encoding's exact fixed
// size, so serialization never reallocates.
//
// The entry points differ only in the writers they hand out. SketchBlock
// runs a whole engine shard into ownership-transferring writers
// (bitio.NewOwnedWriter), whose buffers sealing steals instead of
// copying. The per-vertex Sketch runs one lane into a pooled writer
// (bitio.NewPooledWriter), which the engine copies at seal and releases
// for the next vertex, so a warm Sketch allocates nothing.
//
// block_test.go proves both emit the bits of the scalar reference
// sketcher in reference_test.go for every protocol.

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
// (3 slices × lanes × ~30 levels × 8 bytes ≈ 1 MB) stays in L2.
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

// begin starts one chunk: it fills ws with writers from newWriter, each
// pre-grown to msgBits, and gathers every vertex's incidence updates
// once, with the ±1 of the incidence vector encoded as a sign flag.
func (a *blockArena) begin(n int, chunk []core.VertexView, ws []*bitio.Writer, msgBits int, newWriter func() *bitio.Writer) {
	for i := range ws {
		w := newWriter()
		w.Grow(msgBits)
		ws[i] = w
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

// sketch writes the forest message of every view into out: the primary
// stack, and under BackupReps the checksums and backup stack.
func (p *ForestProtocol) sketch(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer, newWriter func() *bitio.Writer) {
	if len(views) == 0 {
		return
	}
	n := views[0].N
	cfg := p.cfg.withDefaults(n)
	primary := specs(n, cfg, coins)
	var backup []l0.Spec
	msgBits := stackBits(primary)
	if cfg.BackupReps > 0 {
		backup = backupSpecs(n, cfg, coins)
		msgBits += 32 + stackBits(backup) + 32
	}
	a := arenaPool.Get().(*blockArena)
	defer arenaPool.Put(a)
	for lo := 0; lo < len(views); lo += blockLanes {
		hi := min(lo+blockLanes, len(views))
		ws := out[lo:hi]
		a.begin(n, views[lo:hi], ws, msgBits, newWriter)
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

// SketchBlock implements core.BlockSketcher for the spanning forest.
func (p *ForestProtocol) SketchBlock(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	p.sketch(views, coins, out, bitio.NewOwnedWriter)
	return 0, nil
}

// SketchBlock implements core.BlockSketcher by delegating to the forest
// sketch, exactly as Sketch does.
func (p *ComponentsProtocol) SketchBlock(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	return p.forest.SketchBlock(views, coins, out)
}

// sketch writes the skeleton message of every view into out: the K
// groups' stacks in group order.
func (p *SkeletonProtocol) sketch(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer, newWriter func() *bitio.Writer) error {
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
		a.begin(n, views[lo:hi], ws, msgBits, newWriter)
		for g := 0; g < p.K; g++ {
			a.writeStack(ws, groupStack(n, cfg, coins, g), false)
		}
	}
	return nil
}

// SketchBlock implements core.BlockSketcher for the k-forest skeleton.
func (p *SkeletonProtocol) SketchBlock(views []core.VertexView, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	return 0, p.sketch(views, coins, out, bitio.NewOwnedWriter)
}
