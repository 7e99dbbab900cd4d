package l0

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/field"
	"repro/internal/rng"
)

// naiveUpdate replicates the pre-optimization Spec.Update: one full
// square-and-multiply fingerprint exponentiation per level, no window
// table, no hoisting. It is the reference the optimized hot path must
// match bit for bit.
func naiveUpdate(sp Spec, sk *Sketch, index uint64, delta int64) {
	lvl := sp.hash.Level(index, sp.levels-1)
	for l := 0; l <= lvl; l++ {
		w := elemFromSigned(delta)
		sk.cells[l].valSum = field.Add(sk.cells[l].valSum, w)
		sk.cells[l].idxSum = field.Add(sk.cells[l].idxSum, field.Mul(w, field.Reduce(index)))
		sk.cells[l].fpSum = field.Add(sk.cells[l].fpSum, field.Mul(w, field.Pow(sp.z, index+1)))
	}
}

// TestHoistedUpdateMatchesNaivePath: the hoisted, window-table update
// must serialize to exactly the bytes of the per-level naive
// exponentiation path, across many indices, deltas, and universes.
func TestHoistedUpdateMatchesNaivePath(t *testing.T) {
	for _, universe := range []uint64{8, 256, 1 << 12, 1 << 20} {
		sp := NewSpec(universe, rng.NewPublicCoins(universe))
		fast, naive := sp.NewSketch(), sp.NewSketch()
		src := rng.NewSource(universe ^ 0xabc)
		for i := 0; i < 500; i++ {
			idx := uint64(src.Intn(int(universe)))
			delta := int64(src.Intn(7)) - 3
			sp.Update(fast, idx, delta)
			naiveUpdate(sp, naive, idx, delta)
		}
		var wf, wn bitio.Writer
		fast.Write(&wf)
		naive.Write(&wn)
		if wf.Len() != wn.Len() {
			t.Fatalf("universe %d: %d bits vs naive %d", universe, wf.Len(), wn.Len())
		}
		fb, nb := wf.Bytes(), wn.Bytes()
		for i := range fb {
			if fb[i] != nb[i] {
				t.Fatalf("universe %d: sketch byte %d = %#x, naive path has %#x", universe, i, fb[i], nb[i])
			}
		}
		// Sampling must agree too (table-served recovery vs naive chain).
		fi, fv, fok := sp.Sample(fast)
		ni, nv, nok := sp.Sample(naive)
		if fi != ni || fv != nv || fok != nok {
			t.Fatalf("universe %d: Sample (%d,%d,%v) vs naive (%d,%d,%v)", universe, fi, fv, fok, ni, nv, nok)
		}
	}
}

// TestAcquireSketchZeroAndReuse: pooled sketches must come back all-zero
// and behave exactly like freshly allocated ones.
func TestAcquireSketchZeroAndReuse(t *testing.T) {
	sp := NewSpec(1024, rng.NewPublicCoins(3))
	sk := sp.AcquireSketch()
	if !sk.IsZero() || len(sk.cells) != sp.Levels() {
		t.Fatalf("acquired sketch: zero=%v levels=%d want %d", sk.IsZero(), len(sk.cells), sp.Levels())
	}
	sp.Update(sk, 77, 1)
	ReleaseSketch(sk)
	// Re-acquire (likely the same buffer) — must be zeroed again.
	sk2 := sp.AcquireSketch()
	if !sk2.IsZero() {
		t.Fatal("re-acquired sketch not zeroed")
	}
	sp.Update(sk2, 11, -2)
	fresh := sp.NewSketch()
	sp.Update(fresh, 11, -2)
	var wp, wf bitio.Writer
	sk2.Write(&wp)
	fresh.Write(&wf)
	if wp.Len() != wf.Len() {
		t.Fatalf("pooled sketch %d bits, fresh %d", wp.Len(), wf.Len())
	}
	pb, fb := wp.Bytes(), wf.Bytes()
	for i := range pb {
		if pb[i] != fb[i] {
			t.Fatalf("pooled sketch byte %d differs from fresh", i)
		}
	}
	ReleaseSketch(sk2)

	// A smaller-universe spec must get a correctly sized zero sketch even
	// when the pool holds a larger buffer.
	small := NewSpec(8, rng.NewPublicCoins(4))
	sk3 := small.AcquireSketch()
	if len(sk3.cells) != small.Levels() || !sk3.IsZero() {
		t.Fatalf("small acquire: levels=%d want %d zero=%v", len(sk3.cells), small.Levels(), sk3.IsZero())
	}
	ReleaseSketch(sk3)
}

// BenchmarkL0Update measures the sketch-construction hot path: one
// Spec.Update (level hash + hoisted windowed fingerprint power + per-
// level cell updates) over a 2^27-ish universe, the size an n=10k AGM
// run uses.
func BenchmarkL0Update(b *testing.B) {
	const universe = 10000 * 10000
	sp := NewSpec(universe, rng.NewPublicCoins(1))
	sk := sp.NewSketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Update(sk, uint64(i)%universe, 1)
	}
}

var specSink Spec

// BenchmarkL0NewSpec derives one sampler spec over universe 256², the
// spec agm-forest derives at n = 256: the level hash, the fingerprint
// point and its window table, which dominates both time and bytes.
func BenchmarkL0NewSpec(b *testing.B) {
	coins := rng.NewPublicCoins(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		specSink = NewSpec(256*256, coins)
	}
}

// BenchmarkL0UpdateNaive is the pre-optimization reference: per-level
// naive exponentiation, for the EXPERIMENTS.md before/after table.
func BenchmarkL0UpdateNaive(b *testing.B) {
	const universe = 10000 * 10000
	sp := NewSpec(universe, rng.NewPublicCoins(1))
	sk := sp.NewSketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveUpdate(sp, sk, uint64(i)%universe, 1)
	}
}

// BenchmarkL0Sample measures referee-side recovery over a mostly-filled
// sketch (cached inversion + table-served fingerprint check).
func BenchmarkL0Sample(b *testing.B) {
	sp := NewSpec(1<<20, rng.NewPublicCoins(2))
	sk := sp.NewSketch()
	src := rng.NewSource(3)
	for i := 0; i < 64; i++ {
		sp.Update(sk, uint64(src.Intn(1<<20)), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Sample(sk)
	}
}
