package l0

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/rng"
)

// These tests pin the delete-heavy behavior the dynamic-stream subsystem
// leans on: ℓ₀ sketches are linear, so a lane whose updates cancel to the
// zero vector must be indistinguishable — cell for cell, bit for bit,
// checksum for checksum — from a lane that never saw an update, on both
// the scalar and the columnar path.

// deleteSpec is a small-universe spec shared by the tests below.
func deleteSpec(seed uint64) Spec {
	return NewSpec(1<<12, rng.NewPublicCoins(seed))
}

// mixedOps is a deterministic interleaving of inserts and deletes where
// every index inserted on a lane is eventually deleted the same number of
// times, so each lane nets to zero.
type laneOp struct {
	lane  int
	index uint64
	neg   bool
}

func netZeroOps(lanes int, perLane int, src *rng.Source) []laneOp {
	var ops []laneOp
	for lane := 0; lane < lanes; lane++ {
		idx := make([]uint64, perLane)
		for i := range idx {
			idx[i] = uint64(src.Intn(1 << 12))
		}
		for _, x := range idx {
			ops = append(ops, laneOp{lane: lane, index: x, neg: false})
		}
		for _, x := range idx {
			ops = append(ops, laneOp{lane: lane, index: x, neg: true})
		}
	}
	// Deterministic shuffle of the interleaving: deletes may land before
	// the matching insert — linearity means order must not matter.
	src.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// TestNetZeroLaneDecodesToEmpty drives insert-then-delete-all through the
// scalar path and asserts the sketch returns to the freshly-allocated
// state: IsZero, Sample reports an empty vector, and the serialized bytes
// equal a never-touched sketch's.
func TestNetZeroLaneDecodesToEmpty(t *testing.T) {
	sp := deleteSpec(91)
	src := rng.NewPublicCoins(92).Source()
	sk, fresh := sp.NewSketch(), sp.NewSketch()
	for _, op := range netZeroOps(1, 64, src) {
		delta := int64(1)
		if op.neg {
			delta = -1
		}
		sp.Update(sk, op.index, delta)
	}
	if !sk.IsZero() {
		t.Fatal("net-zero update sequence left a non-zero sketch")
	}
	if _, _, ok := sp.Sample(sk); ok {
		t.Fatal("Sample recovered an index from a net-zero sketch")
	}
	w1, w2 := &bitio.Writer{}, &bitio.Writer{}
	sk.Write(w1)
	fresh.Write(w2)
	if string(w1.Bytes()) != string(w2.Bytes()) || w1.Len() != w2.Len() {
		t.Fatal("net-zero sketch serializes differently from a fresh sketch")
	}
	if sk.Checksum() != fresh.Checksum() {
		t.Fatal("net-zero sketch checksum differs from a fresh sketch's")
	}
}

// TestBankMatchesScalarUnderInterleavedDeletes replays one interleaved
// ±1 stream through per-lane scalar sketches and through a single Bank
// via UpdateBlock, then asserts LaneChecksum ≡ Checksum and WriteLane ≡
// Write for every lane — including the lanes that net to zero.
func TestBankMatchesScalarUnderInterleavedDeletes(t *testing.T) {
	const lanes = 8
	sp := deleteSpec(93)
	src := rng.NewPublicCoins(94).Source()

	ops := netZeroOps(lanes/2, 48, src)
	// Give the other half of the lanes a surviving residue so the test
	// covers non-zero lanes under the same interleaving.
	for lane := lanes / 2; lane < lanes; lane++ {
		for i := 0; i < 48; i++ {
			ops = append(ops, laneOp{lane: lane, index: uint64(src.Intn(1 << 12)), neg: src.Bool()})
		}
	}

	scalar := make([]*Sketch, lanes)
	for i := range scalar {
		scalar[i] = sp.NewSketch()
	}
	bank := NewBank()
	bank.Reset(sp.Levels(), lanes)
	var upd BlockUpdates

	for start := 0; start < len(ops); start += 37 { // uneven batches
		end := min(start+37, len(ops))
		upd.Reset()
		for _, op := range ops[start:end] {
			delta := int64(1)
			if op.neg {
				delta = -1
			}
			sp.Update(scalar[op.lane], op.index, delta)
			upd.Add(op.lane, op.index, op.neg)
		}
		sp.UpdateBlock(bank, &upd)
	}

	for lane := 0; lane < lanes; lane++ {
		if got, want := bank.LaneChecksum(lane), scalar[lane].Checksum(); got != want {
			t.Fatalf("lane %d: LaneChecksum %08x != scalar Checksum %08x", lane, got, want)
		}
		w1, w2 := &bitio.Writer{}, &bitio.Writer{}
		bank.WriteLane(w1, lane)
		scalar[lane].Write(w2)
		if string(w1.Bytes()) != string(w2.Bytes()) || w1.Len() != w2.Len() {
			t.Fatalf("lane %d: WriteLane bytes differ from scalar Write", lane)
		}
	}
	// The first half of the lanes netted to zero; their bank lanes must
	// match a fresh sketch too, not just the (equally net-zero) scalar.
	fresh := sp.NewSketch()
	for lane := 0; lane < lanes/2; lane++ {
		if bank.LaneChecksum(lane) != fresh.Checksum() {
			t.Fatalf("net-zero lane %d checksum differs from a fresh sketch's", lane)
		}
	}
}

// TestUpdateBlockMatchesScalarOnMixedBlocks pins UpdateBlock ≡ Update on
// blocks that mix lanes, signs and repeated indices — the exact shape the
// dynamic-stream maintainer produces (one block per ops batch, two lane
// touches per edge op).
func TestUpdateBlockMatchesScalarOnMixedBlocks(t *testing.T) {
	const lanes = 5
	sp := deleteSpec(95)
	src := rng.NewPublicCoins(96).Source()

	scalar := make([]*Sketch, lanes)
	for i := range scalar {
		scalar[i] = sp.NewSketch()
	}
	bank := NewBank()
	bank.Reset(sp.Levels(), lanes)
	var upd BlockUpdates

	for block := 0; block < 20; block++ {
		upd.Reset()
		size := 1 + src.Intn(50)
		for i := 0; i < size; i++ {
			lane := src.Intn(lanes)
			index := uint64(src.Intn(64)) // small range forces repeats
			neg := src.Bool()
			delta := int64(1)
			if neg {
				delta = -1
			}
			sp.Update(scalar[lane], index, delta)
			upd.Add(lane, index, neg)
		}
		sp.UpdateBlock(bank, &upd)
		for lane := 0; lane < lanes; lane++ {
			if bank.LaneChecksum(lane) != scalar[lane].Checksum() {
				t.Fatalf("block %d lane %d: bank diverged from scalar", block, lane)
			}
		}
	}
}
