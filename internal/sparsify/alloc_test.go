package sparsify

import (
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestDecodeAllocs: the referee reads each vertex's level payloads in
// place in its message (bitio.Reader.View) instead of copying every
// payload out first. On gnp(120, 8) one Decode allocated about 80 MB in
// 2,450 allocations with the copies and about 1.9 MB in 650 without.
func TestDecodeAllocs(t *testing.T) {
	const n = 120
	g := gen.Gnp(n, 8/float64(n-1), rng.NewSource(3))
	coins := rng.NewPublicCoins(5)
	p := New(Config{})
	msgs := make([]*bitio.Writer, n)
	for v := range msgs {
		w, err := p.Sketch(core.VertexView{N: n, ID: v, Neighbors: g.Neighbors(v)}, coins)
		if err != nil {
			t.Fatal(err)
		}
		msgs[v] = w
	}
	readers := make([]bitio.Reader, n)
	rs := make([]*bitio.Reader, n)
	decode := func() {
		for v, w := range msgs {
			readers[v] = *bitio.ReaderFor(w)
			rs[v] = &readers[v]
		}
		if _, err := p.Decode(n, rs, coins); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(3, decode)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one Decode at n = %d: %.0f allocations, %d bytes", n, allocs, bytes)
	if allocs > 900 || bytes > 4<<20 {
		t.Errorf("one Decode at n = %d allocates %.0f times and %d bytes, want at most 900 and 4 MiB", n, allocs, bytes)
	}
}
