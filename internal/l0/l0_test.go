package l0

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/field"
	"repro/internal/rng"
)

func testZ(seed uint64) field.Elem {
	z := field.Reduce(rng.NewSource(seed).Uint64())
	if z == 0 {
		z = 1
	}
	return z
}

// upd updates a cell with the naive fingerprint term z^{index+1} —
// oneSparse.update takes the already-exponentiated term so that
// Spec.Update can hoist the exponentiation out of its per-level loop.
func upd(o *oneSparse, index uint64, delta int64, z field.Elem) {
	o.update(index, delta, field.Pow(z, index+1))
}

func TestOneSparseExactRecovery(t *testing.T) {
	z := testZ(1)
	for _, c := range []struct {
		index uint64
		delta int64
	}{
		{0, 1}, {5, -1}, {1000, 7}, {0, -3}, {1 << 30, 1},
	} {
		var o oneSparse
		upd(&o, c.index, c.delta, z)
		idx, v, ok := o.Recover(1<<31, z)
		if !ok {
			t.Errorf("recovery failed for (%d,%d)", c.index, c.delta)
			continue
		}
		if idx != c.index || v != c.delta {
			t.Errorf("recovered (%d,%d), want (%d,%d)", idx, v, c.index, c.delta)
		}
	}
}

func TestOneSparseZeroVector(t *testing.T) {
	z := testZ(2)
	var o oneSparse
	if !o.IsZero() {
		t.Error("fresh cell not zero")
	}
	if _, _, ok := o.Recover(100, z); ok {
		t.Error("recovered from zero vector")
	}
	// Cancellation back to zero.
	upd(&o, 7, 3, z)
	upd(&o, 7, -3, z)
	if !o.IsZero() {
		t.Error("cancelled cell not zero")
	}
}

func TestOneSparseRejectsTwoSparse(t *testing.T) {
	z := testZ(3)
	rejected := 0
	const trials = 200
	src := rng.NewSource(4)
	for i := 0; i < trials; i++ {
		var o oneSparse
		a, b := uint64(src.Intn(1000)), uint64(src.Intn(1000))
		if a == b {
			continue
		}
		upd(&o, a, 1, z)
		upd(&o, b, 1, z)
		if _, _, ok := o.Recover(1000, z); !ok {
			rejected++
		}
	}
	if rejected < trials-5 {
		t.Errorf("two-sparse vectors accepted too often: %d/%d rejected", rejected, trials)
	}
}

func TestOneSparseMixedSignsCancelSum(t *testing.T) {
	// +1 and -1 at different indices: value sum is zero but the vector is
	// 2-sparse. Recovery must fail rather than divide by zero.
	z := testZ(5)
	var o oneSparse
	upd(&o, 3, 1, z)
	upd(&o, 9, -1, z)
	if _, _, ok := o.Recover(100, z); ok {
		t.Error("recovered from a ±1 pair with zero value sum")
	}
	if o.IsZero() {
		t.Error("nonzero vector reported zero")
	}
}

func TestOneSparseLinearity(t *testing.T) {
	z := testZ(6)
	var a, b oneSparse
	upd(&a, 10, 2, z)
	upd(&b, 10, 3, z)
	upd(&b, 20, 1, z)
	upd(&b, 20, -1, z) // cancels
	a.Add(b)
	idx, v, ok := a.Recover(100, z)
	if !ok || idx != 10 || v != 5 {
		t.Errorf("merged recovery = (%d,%d,%v), want (10,5,true)", idx, v, ok)
	}
}

func TestOneSparseSerializationRoundTrip(t *testing.T) {
	z := testZ(7)
	var o oneSparse
	upd(&o, 42, -5, z)
	var w bitio.Writer
	o.write(&w)
	if w.Len() != 3*61 {
		t.Errorf("cell is %d bits, want %d", w.Len(), 3*61)
	}
	got, err := readOneSparse(bitio.ReaderFor(&w))
	if err != nil {
		t.Fatal(err)
	}
	if got != o {
		t.Errorf("round trip: got %+v want %+v", got, o)
	}
}

func TestReadOneSparseRejectsOutOfRange(t *testing.T) {
	var w bitio.Writer
	w.WriteUint(field.P, 61) // not a valid element
	w.WriteUint(0, 61)
	w.WriteUint(0, 61)
	if _, err := readOneSparse(bitio.ReaderFor(&w)); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func TestSignedEmbedding(t *testing.T) {
	for _, v := range []int64{0, 1, -1, maxMagnitude, -maxMagnitude} {
		got, ok := signedFromElem(elemFromSigned(v))
		if !ok || got != v {
			t.Errorf("embedding round trip of %d = (%d,%v)", v, got, ok)
		}
	}
	if _, ok := signedFromElem(field.Elem(maxMagnitude + 1)); ok {
		t.Error("oversized magnitude accepted")
	}
}

func TestSamplerRecoversSingleton(t *testing.T) {
	coins := rng.NewPublicCoins(11)
	sp := NewSpec(1024, coins)
	sk := sp.NewSketch()
	sp.Update(sk, 77, 1)
	idx, v, ok := sp.Sample(sk)
	if !ok || idx != 77 || v != 1 {
		t.Errorf("Sample = (%d,%d,%v), want (77,1,true)", idx, v, ok)
	}
}

func TestSamplerZeroVector(t *testing.T) {
	sp := NewSpec(256, rng.NewPublicCoins(12))
	sk := sp.NewSketch()
	if !sk.IsZero() {
		t.Error("fresh sketch not zero")
	}
	if _, _, ok := sp.Sample(sk); ok {
		t.Error("sampled from zero vector")
	}
	sp.Update(sk, 5, 4)
	sp.Update(sk, 5, -4)
	if !sk.IsZero() {
		t.Error("cancelled sketch not zero")
	}
}

func TestSamplerSuccessProbabilityOnDenseVectors(t *testing.T) {
	// Over independent specs, sampling a vector with many nonzeros should
	// succeed with constant probability and always return a true support
	// coordinate with the right value.
	const trials = 300
	root := rng.NewPublicCoins(13)
	support := map[uint64]int64{}
	for i := uint64(0); i < 40; i++ {
		support[i*25] = int64(1 + i%3)
	}
	successes := 0
	for trial := 0; trial < trials; trial++ {
		sp := NewSpec(1024, root.DeriveIndex(trial))
		sk := sp.NewSketch()
		for idx, v := range support {
			sp.Update(sk, idx, v)
		}
		if idx, v, ok := sp.Sample(sk); ok {
			successes++
			want, inSupport := support[idx]
			if !inSupport || v != want {
				t.Fatalf("sampled (%d,%d) not in support", idx, v)
			}
		}
	}
	if successes < trials/4 {
		t.Errorf("sampler succeeded %d/%d, want at least %d", successes, trials, trials/4)
	}
}

func TestSamplerLinearityMatchesDirectSketch(t *testing.T) {
	sp := NewSpec(512, rng.NewPublicCoins(14))
	a, b, direct := sp.NewSketch(), sp.NewSketch(), sp.NewSketch()
	updatesA := map[uint64]int64{1: 1, 2: -1, 3: 2}
	updatesB := map[uint64]int64{2: 1, 3: -2, 9: 5}
	for i, v := range updatesA {
		sp.Update(a, i, v)
		sp.Update(direct, i, v)
	}
	for i, v := range updatesB {
		sp.Update(b, i, v)
		sp.Update(direct, i, v)
	}
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	// a now sketches {1:1, 9:5} (2 cancels to 0? no: 2:-1+1=0, 3:2-2=0).
	ia, va, oka := sp.Sample(a)
	id, vd, okd := sp.Sample(direct)
	if oka != okd || ia != id || va != vd {
		t.Errorf("merged (%d,%d,%v) != direct (%d,%d,%v)", ia, va, oka, id, vd, okd)
	}
	if oka {
		if ia != 1 && ia != 9 {
			t.Errorf("sampled index %d outside residual support {1,9}", ia)
		}
	}
}

func TestSamplerAddLevelMismatch(t *testing.T) {
	spA := NewSpec(16, rng.NewPublicCoins(15))
	spB := NewSpec(1<<20, rng.NewPublicCoins(16))
	if err := spA.NewSketch().Add(spB.NewSketch()); err == nil {
		t.Error("level mismatch not detected")
	}
}

func TestSamplerUpdatePanicsOutsideUniverse(t *testing.T) {
	sp := NewSpec(8, rng.NewPublicCoins(17))
	defer func() {
		if recover() == nil {
			t.Error("out-of-universe update did not panic")
		}
	}()
	sp.Update(sp.NewSketch(), 8, 1)
}

func TestSketchSerializationRoundTrip(t *testing.T) {
	sp := NewSpec(1024, rng.NewPublicCoins(18))
	sk := sp.NewSketch()
	for i := uint64(0); i < 30; i++ {
		sp.Update(sk, i*7%1024, int64(i%5)-2)
	}
	var w bitio.Writer
	sk.Write(&w)
	if w.Len() != sk.BitLen() {
		t.Errorf("serialized %d bits, BitLen says %d", w.Len(), sk.BitLen())
	}
	got, err := sp.ReadSketch(bitio.ReaderFor(&w))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sk.cells {
		if got.cells[i] != sk.cells[i] {
			t.Fatalf("cell %d differs after round trip", i)
		}
	}
}

func TestSpecSharedCoinsInterchangeable(t *testing.T) {
	// A player and the referee deriving specs from the same coins must be
	// able to exchange sketches.
	coins := rng.NewPublicCoins(19)
	player := NewSpec(100, coins.Derive("x"))
	referee := NewSpec(100, coins.Derive("x"))
	sk := player.NewSketch()
	player.Update(sk, 55, 1)
	var w bitio.Writer
	sk.Write(&w)
	got, err := referee.ReadSketch(bitio.ReaderFor(&w))
	if err != nil {
		t.Fatal(err)
	}
	idx, v, ok := referee.Sample(got)
	if !ok || idx != 55 || v != 1 {
		t.Errorf("referee sampled (%d,%d,%v)", idx, v, ok)
	}
}

func BenchmarkUpdate(b *testing.B) {
	sp := NewSpec(1<<20, rng.NewPublicCoins(1))
	sk := sp.NewSketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Update(sk, uint64(i)&(1<<20-1), 1)
	}
}

func BenchmarkSample(b *testing.B) {
	sp := NewSpec(1<<20, rng.NewPublicCoins(2))
	sk := sp.NewSketch()
	for i := uint64(0); i < 100; i++ {
		sp.Update(sk, i*997, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Sample(sk)
	}
}
