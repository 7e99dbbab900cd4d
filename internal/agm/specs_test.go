package agm

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/l0"
	"repro/internal/rng"
)

// resetSpecCache empties the process-wide spec memo so a test can force a
// from-scratch derivation.
func resetSpecCache() {
	specCache.Lock()
	specCache.m = nil
	specCache.Unlock()
}

// TestMemoizedSpecsMatchFresh is the memoization soundness check: a cached
// stack must be indistinguishable — parameter for parameter — from one
// derived from scratch with the same (universe, count, coin subtree).
func TestMemoizedSpecsMatchFresh(t *testing.T) {
	coins := rng.NewPublicCoins(77)
	const universe, count = 50 * 50, 12

	resetSpecCache()
	memoized := derivedSpecs(universe, count, coins.Derive("agm"))
	fresh := deriveSpecsFresh(universe, count, coins.Derive("agm"))

	if len(memoized) != len(fresh) {
		t.Fatalf("stack sizes differ: %d vs %d", len(memoized), len(fresh))
	}
	for i := range memoized {
		if !reflect.DeepEqual(memoized[i], fresh[i]) {
			t.Errorf("spec %d: memoized and fresh derivations differ", i)
		}
	}

	// A repeat lookup must serve the identical cached slice, not re-derive.
	again := derivedSpecs(universe, count, coins.Derive("agm"))
	if &again[0] != &memoized[0] {
		t.Error("second lookup did not hit the cache")
	}

	// Distinct coin subtrees must not collide in the cache.
	other := derivedSpecs(universe, count, coins.Derive("agm-backup"))
	if reflect.DeepEqual(other[0], memoized[0]) {
		t.Error("different coin subtree produced an identical spec (key collision?)")
	}
}

// TestMemoizedSpecsSketchIdentically exercises the memo at the behavior
// level: sketches built under cached specs serialize and sample exactly as
// sketches built under a fresh derivation.
func TestMemoizedSpecsSketchIdentically(t *testing.T) {
	coins := rng.NewPublicCoins(78)
	const universe, count = 30 * 30, 6

	resetSpecCache()
	memoized := derivedSpecs(universe, count, coins.Derive("agm"))
	fresh := deriveSpecsFresh(universe, count, coins.Derive("agm"))

	var upd l0.BlockUpdates
	for _, u := range []struct {
		idx uint64
		neg bool
	}{{3, false}, {77, true}, {415, false}, {3, true}, {899, false}, {77, false}} {
		upd.Add(0, u.idx, u.neg)
	}
	ma, fa := l0.NewBank(), l0.NewBank()
	for i := range memoized {
		ma.Reset(memoized[i].Levels(), 1)
		fa.Reset(fresh[i].Levels(), 1)
		memoized[i].UpdateBlock(ma, &upd)
		fresh[i].UpdateBlock(fa, &upd)
		var wm, wf bitio.Writer
		ma.WriteLane(&wm, 0)
		fa.WriteLane(&wf, 0)
		if wm.Len() != wf.Len() || !bytes.Equal(wm.Bytes(), wf.Bytes()) {
			t.Fatalf("spec %d: memoized and fresh sketches serialize differently", i)
		}
		mi, mv, mok := memoized[i].SampleLane(ma, 0)
		fi, fv, fok := fresh[i].SampleLane(fa, 0)
		if mi != fi || mv != fv || mok != fok {
			t.Fatalf("spec %d: samples diverge: (%d,%d,%v) vs (%d,%d,%v)", i, mi, mv, mok, fi, fv, fok)
		}
	}
}

// TestSpecCacheTranscriptStability runs the full forest protocol three
// times — cold cache, cold cache again, warm cache — and demands
// byte-identical per-player messages, so memoization can never leak into
// the transcript.
func TestSpecCacheTranscriptStability(t *testing.T) {
	g := gen.Gnp(40, 0.2, rng.NewSource(5))
	coins := rng.NewPublicCoins(6)
	p := NewSpanningForest(Config{BackupReps: 2})
	views := core.Views(g)

	capture := func() [][]byte {
		out := make([][]byte, len(views))
		for v, view := range views {
			w, err := p.Sketch(view, coins)
			if err != nil {
				t.Fatalf("sketch %d: %v", v, err)
			}
			out[v] = append([]byte(nil), w.Bytes()...)
			bitio.Release(w)
		}
		return out
	}

	resetSpecCache()
	cold1 := capture()
	resetSpecCache()
	cold2 := capture()
	warm := capture()

	for v := range cold1 {
		if !bytes.Equal(cold1[v], cold2[v]) {
			t.Fatalf("vertex %d: two cold-cache runs disagree", v)
		}
		if !bytes.Equal(cold1[v], warm[v]) {
			t.Fatalf("vertex %d: warm-cache run disagrees with cold run", v)
		}
	}

	// And the decoded output must be a spanning forest either way.
	res, err := core.Run[[]graph.Edge](p, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsSpanningForest(g, res.Output) {
		t.Fatal("decoded output is not a spanning forest")
	}
}

// BenchmarkAGMSketchVertex measures the per-vertex sketching cost of the
// forest protocol — the engine's hot path — with the spec cache warm, as
// it is for all but the first vertex of a run.
func BenchmarkAGMSketchVertex(b *testing.B) {
	g := gen.Gnp(1000, 0.01, rng.NewSource(1))
	coins := rng.NewPublicCoins(2)
	p := NewSpanningForest(Config{})
	views := core.Views(g)
	warm := views[0]
	if _, err := p.Sketch(warm, coins); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := views[i%len(views)]
		w, err := p.Sketch(view, coins)
		if err != nil {
			b.Fatal(err)
		}
		bitio.Release(w)
	}
}
