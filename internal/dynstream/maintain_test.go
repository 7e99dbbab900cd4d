package dynstream

import (
	"fmt"
	"testing"

	"repro/internal/l0"
	"repro/internal/rng"
)

// TestEpochParity is the subsystem's acceptance proof: for every
// generated pattern, the incrementally maintained sketch state is
// byte-identical to the scalar reference's from-scratch sketch of the
// materialized graph (reference_test.go) at every epoch boundary, at
// Workers ∈ {1, 2, 8}. With block=true each epoch is applied as one
// batch (Process); with block=false the same ops are applied one
// ApplyBatch call at a time, the way agm.StreamSketcher drives the
// maintainer, so batch boundaries cannot move a bit either.
func TestEpochParity(t *testing.T) {
	coins := rng.NewPublicCoins(91)
	for _, spec := range allSpecs(31) {
		s, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		specs := Samplers(s.N(), 3, coins)
		for _, workers := range []int{1, 2, 8} {
			for _, block := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/block=%v", spec.Pattern, workers, block)
				t.Run(name, func(t *testing.T) {
					run := Process(s, specs, Options{Workers: workers})
					if !block {
						run = processOpByOp(s, specs, Options{Workers: workers})
					}
					if len(run.Checkpoints) != s.Epochs() {
						t.Fatalf("%d checkpoints, want %d", len(run.Checkpoints), s.Epochs())
					}
					for e, c := range run.Checkpoints {
						if err := diffCheckpoint(c, refRebuild(s.GraphAt(e), specs)); err != nil {
							t.Fatalf("epoch %d: %v", e, err)
						}
					}
					if err := VerifyEpochParity(run, specs); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// processOpByOp is Process with every op applied as its own batch.
func processOpByOp(s *Stream, specs []l0.Spec, opts Options) *Run {
	m := NewMaintainer(s.N(), specs, opts)
	run := &Run{Stream: s}
	for e := 0; e < s.Epochs(); e++ {
		ops := s.EpochOps(e)
		for i := range ops {
			m.ApplyBatch(ops[i : i+1])
		}
		run.Checkpoints = append(run.Checkpoints, m.Checkpoint())
	}
	return run
}

// TestCheckpointsAgreeAcrossStrategies pins the cross-strategy invariant
// directly: at every worker count the maintainer produces the scalar
// reference's digest and per-vertex checksums at every epoch.
func TestCheckpointsAgreeAcrossStrategies(t *testing.T) {
	coins := rng.NewPublicCoins(92)
	s, err := Generate(churnSpec(37))
	if err != nil {
		t.Fatal(err)
	}
	specs := Samplers(s.N(), 2, coins)
	for _, workers := range []int{1, 2, 8} {
		run := Process(s, specs, Options{Workers: workers})
		for e, c := range run.Checkpoints {
			if err := diffCheckpoint(c, refRebuild(s.GraphAt(e), specs)); err != nil {
				t.Fatalf("workers=%d epoch %d: %v", workers, e, err)
			}
		}
	}
}

// TestNetZeroCheckpointsAreEmpty pins the delete path end to end: after
// a fill-drain stream every lane has returned to net zero, so the final
// checkpoint must equal the sketch of the empty graph — all-zero cells,
// byte for byte.
func TestNetZeroCheckpointsAreEmpty(t *testing.T) {
	coins := rng.NewPublicCoins(93)
	s, err := Generate(fillDrainSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	specs := Samplers(s.N(), 2, coins)
	run := Process(s, specs, Options{Workers: 4})
	final := run.At(s.Epochs() - 1)
	empty := NewMaintainer(s.N(), specs, Options{}).Checkpoint()
	if final.Digest() != empty.Digest() {
		t.Fatal("net-zero checkpoint is not the empty-graph sketch")
	}
	for v := 0; v < s.N(); v++ {
		r := final.Vertex(v)
		for r.Remaining() > 0 {
			b, err := r.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			if b {
				t.Fatalf("vertex %d has a nonzero bit after net-zero stream", v)
			}
		}
	}
}

// TestCheckpointImmutability pins that a checkpoint is a snapshot:
// applying more ops to the maintainer must not change an already-taken
// checkpoint.
func TestCheckpointImmutability(t *testing.T) {
	coins := rng.NewPublicCoins(94)
	s, err := Generate(churnSpec(43))
	if err != nil {
		t.Fatal(err)
	}
	specs := Samplers(s.N(), 2, coins)
	m := NewMaintainer(s.N(), specs, Options{})
	m.ApplyBatch(s.EpochOps(0))
	c := m.Checkpoint()
	digest := c.Digest()
	if c.Ops != s.OpsPerEpoch() {
		t.Fatalf("checkpoint covers %d ops, want %d", c.Ops, s.OpsPerEpoch())
	}
	m.ApplyBatch(s.EpochOps(1))
	if c.Digest() != digest {
		t.Fatal("checkpoint mutated by later ApplyBatch")
	}
}

// TestDecodedStreamDrivesMaintainer closes the codec→maintainer loop: a
// decoded stream processes to the same checkpoints as the original.
func TestDecodedStreamDrivesMaintainer(t *testing.T) {
	coins := rng.NewPublicCoins(95)
	s, err := Generate(blinkSpec(47))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStream(EncodeStream(s))
	if err != nil {
		t.Fatal(err)
	}
	specs := Samplers(s.N(), 2, coins)
	a := Process(s, specs, Options{})
	b := Process(decoded, specs, Options{})
	for e := range a.Checkpoints {
		if a.At(e).Digest() != b.At(e).Digest() {
			t.Fatalf("epoch %d: decoded stream diverges from original", e)
		}
	}
}
