package field

import (
	"math/rand"
	"testing"
)

func randElems(r *rand.Rand, n int) []Elem {
	out := make([]Elem, n)
	for i := range out {
		out[i] = Reduce(r.Uint64())
	}
	return out
}

// TestBlockKernelsMatchScalar proves each slice kernel is value-identical
// to its scalar counterpart applied per element.
func TestBlockKernelsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 64, 65, 300} {
		a, b := randElems(r, n), randElems(r, n)

		sum := append([]Elem(nil), a...)
		AddBlock(sum, b)
		for i := range sum {
			if sum[i] != Add(a[i], b[i]) {
				t.Fatalf("AddBlock[%d] = %d, want %d", i, sum[i], Add(a[i], b[i]))
			}
		}

		prod := append([]Elem(nil), a...)
		MulBlock(prod, b)
		for i := range prod {
			if prod[i] != Mul(a[i], b[i]) {
				t.Fatalf("MulBlock[%d] = %d, want %d", i, prod[i], Mul(a[i], b[i]))
			}
		}

		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = r.Uint64()
		}
		red := make([]Elem, n)
		ReduceBlock(red, xs)
		for i := range red {
			if red[i] != Reduce(xs[i]) {
				t.Fatalf("ReduceBlock[%d] = %d, want %d", i, red[i], Reduce(xs[i]))
			}
		}
	}
}

// TestPowBlockMatchesPow proves the window-sweeping block exponentiation
// is value-identical to PowTable.Pow (and hence to the naive chain) over
// edge-case and random exponents.
func TestPowBlockMatchesPow(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		base := Reduce(r.Uint64())
		if base == 0 {
			base = 1
		}
		tab := NewPowTable(base)
		es := []uint64{0, 1, 2, 255, 256, 257, 1 << 16, 1<<32 - 1, 1 << 61, ^uint64(0)}
		for i := 0; i < 200; i++ {
			es = append(es, r.Uint64()>>uint(r.Intn(64)))
		}
		dst := make([]Elem, len(es))
		tab.PowBlock(dst, es)
		for i, e := range es {
			if want := tab.Pow(e); dst[i] != want {
				t.Fatalf("base %d: PowBlock(%d) = %d, want %d", base, e, dst[i], want)
			}
			if want := Pow(base, es[i]); dst[i] != want {
				t.Fatalf("base %d: PowBlock(%d) = %d, naive Pow gives %d", base, es[i], dst[i], want)
			}
		}
	}
}

// TestBlockKernelsZeroAlloc pins the kernels at zero allocations.
func TestBlockKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := randElems(r, 256), randElems(r, 256)
	es := make([]uint64, 256)
	for i := range es {
		es[i] = r.Uint64() >> 20
	}
	dst := make([]Elem, 256)
	tab := NewPowTable(7)
	avg := testing.AllocsPerRun(100, func() {
		AddBlock(a, b)
		MulBlock(a, b)
		ReduceBlock(b, es)
		tab.PowBlock(dst, es)
	})
	if avg != 0 {
		t.Fatalf("block kernels allocate %v times per run, want 0", avg)
	}
}

func BenchmarkFieldPowBlock(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	tab := NewPowTable(Reduce(r.Uint64()))
	es := make([]uint64, 256)
	for i := range es {
		// Exponents in the sketch-update range (edge indexes at n = 10⁴).
		es[i] = r.Uint64() % (10000 * 10000)
	}
	dst := make([]Elem, len(es))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.PowBlock(dst, es)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(es)), "ns/pow")
}

// BenchmarkFieldPowBlockScalarLoop is the scalar reference for the guard
// ratio: the same 256 exponentiations through per-element Pow calls.
func BenchmarkFieldPowBlockScalarLoop(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	tab := NewPowTable(Reduce(r.Uint64()))
	es := make([]uint64, 256)
	for i := range es {
		es[i] = r.Uint64() % (10000 * 10000)
	}
	dst := make([]Elem, len(es))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, e := range es {
			dst[j] = tab.Pow(e)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(es)), "ns/pow")
}
