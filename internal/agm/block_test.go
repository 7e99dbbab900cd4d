package agm

import (
	"bytes"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// agmSketcher is the sketching surface every AGM protocol exposes.
type agmSketcher interface {
	Sketch(core.VertexView, *rng.PublicCoins) (*bitio.Writer, error)
	SketchBlock([]core.VertexView, *rng.PublicCoins, []*bitio.Writer) (int, error)
}

// sketchCase pairs an AGM protocol with its scalar reference sketcher.
type sketchCase struct {
	p   agmSketcher
	ref func(core.VertexView, *rng.PublicCoins) *bitio.Writer
}

// sketchCases enumerates the AGM protocols, forest with and without the
// backup tail, components and skeleton.
func sketchCases() map[string]sketchCase {
	forest := func(cfg Config) func(core.VertexView, *rng.PublicCoins) *bitio.Writer {
		return func(v core.VertexView, c *rng.PublicCoins) *bitio.Writer { return refForestSketch(cfg, v, c) }
	}
	skeleton := NewSkeleton(2, Config{Rounds: 3, Reps: 2})
	return map[string]sketchCase{
		"forest":        {NewSpanningForest(Config{Rounds: 4, Reps: 2}), forest(Config{Rounds: 4, Reps: 2})},
		"forest-backup": {NewSpanningForest(Config{Rounds: 4, Reps: 2, BackupReps: 1}), forest(Config{Rounds: 4, Reps: 2, BackupReps: 1})},
		"components":    {NewComponentCount(Config{Rounds: 4, Reps: 2}), forest(Config{Rounds: 4, Reps: 2})},
		"skeleton": {skeleton, func(v core.VertexView, c *rng.PublicCoins) *bitio.Writer {
			return refSkeletonSketch(skeleton, v, c)
		}},
	}
}

// TestSketchBlockMatchesSketch proves that both entry points, the block
// path at a block size that exercises full and partial blockLanes chunks
// and the per-vertex Sketch, emit exactly the scalar reference's bits
// for every AGM protocol.
func TestSketchBlockMatchesSketch(t *testing.T) {
	const n = 150 // > blockLanes, not a multiple of it
	g := gen.Gnp(n, 0.05, rng.NewSource(21))
	views := core.Views(g)
	coins := rng.NewPublicCoins(33)
	for name, c := range sketchCases() {
		t.Run(name, func(t *testing.T) {
			out := make([]*bitio.Writer, len(views))
			if bad, err := c.p.SketchBlock(views, coins, out); err != nil {
				t.Fatalf("SketchBlock failed at view %d: %v", bad, err)
			}
			for v, view := range views {
				want := c.ref(view, coins)
				one, err := c.p.Sketch(view, coins)
				if err != nil {
					t.Fatalf("vertex %d: Sketch: %v", v, err)
				}
				for _, got := range []struct {
					path string
					w    *bitio.Writer
				}{{"SketchBlock", out[v]}, {"Sketch", one}} {
					if got.w == nil {
						t.Fatalf("vertex %d: %s left a nil writer", v, got.path)
					}
					if got.w.Len() != want.Len() || !bytes.Equal(got.w.Bytes(), want.Bytes()) {
						t.Fatalf("vertex %d: %s wrote %d bits that differ from the reference's %d", v, got.path, got.w.Len(), want.Len())
					}
				}
			}
		})
	}
}

// TestSketchVertexAllocs: with the spec cache and the arena pool warm,
// appending a forest-family sketch into a writer with room allocates
// nothing, which is what lets mst and sparsify sketch straight into
// their pre-grown messages. The skeleton is left out: each call derives
// its groups' coin nodes (rng.PublicCoins.DeriveIndex), one small heap
// object per group.
func TestSketchVertexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := gen.Gnp(200, 0.05, rng.NewSource(23))
	views := core.Views(g)
	coins := rng.NewPublicCoins(37)
	cases := sketchCases()
	for _, name := range []string{"forest", "forest-backup", "components"} {
		var f *ForestProtocol
		switch p := cases[name].p.(type) {
		case *ForestProtocol:
			f = p
		case *ComponentsProtocol:
			f = p.forest // the components sketch is the forest sketch
		}
		w := &bitio.Writer{}
		w.Grow(f.SketchBits(g.N(), coins))
		v := 0
		allocs := testing.AllocsPerRun(50, func() {
			w.Reset()
			f.AppendSketch(w, views[v%len(views)], coins)
			v++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per AppendSketch, want 0", name, allocs)
		}
	}
}

// TestSketchBlockSubslices proves arbitrary shard boundaries do not
// change any bit: sketching views in two uneven sub-blocks matches the
// single whole-range call vertex for vertex.
func TestSketchBlockSubslices(t *testing.T) {
	const n = 90
	g := gen.Gnp(n, 0.08, rng.NewSource(27))
	views := core.Views(g)
	coins := rng.NewPublicCoins(35)
	p := NewSpanningForest(Config{Rounds: 4, Reps: 2, BackupReps: 1})

	whole := make([]*bitio.Writer, n)
	if _, err := p.SketchBlock(views, coins, whole); err != nil {
		t.Fatal(err)
	}
	split := make([]*bitio.Writer, n)
	cut := 37
	if _, err := p.SketchBlock(views[:cut], coins, split[:cut]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SketchBlock(views[cut:], coins, split[cut:]); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if !bytes.Equal(whole[v].Bytes(), split[v].Bytes()) {
			t.Fatalf("vertex %d: shard boundary at %d changed the sketch", v, cut)
		}
	}
}

// TestSkeletonSketchBlockValidation mirrors the scalar K validation.
func TestSkeletonSketchBlockValidation(t *testing.T) {
	g := gen.Gnp(10, 0.3, rng.NewSource(1))
	views := core.Views(g)
	p := NewSkeleton(0, Config{})
	out := make([]*bitio.Writer, len(views))
	if _, err := p.SketchBlock(views, rng.NewPublicCoins(1), out); err == nil {
		t.Fatal("SketchBlock accepted K = 0")
	}
}
