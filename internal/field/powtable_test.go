package field

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestPowTableMatchesPow: the windowed fixed-base table must agree with
// naive square-and-multiply on edge-case and random exponents — the
// transcript-determinism contract rides on this equality.
func TestPowTableMatchesPow(t *testing.T) {
	src := rng.NewSource(7)
	bases := []Elem{0, 1, 2, 3, Elem(P - 1), Elem(P - 2), Reduce(src.Uint64()), Reduce(src.Uint64())}
	exps := []uint64{0, 1, 2, 3, 61, 63, 64, 255, 256, 257, 1 << 20, P - 2, P - 1, P, ^uint64(0)}
	for _, base := range bases {
		tab := NewPowTable(base)
		for _, e := range exps {
			if got, want := tab.Pow(e), Pow(base, e); got != want {
				t.Fatalf("PowTable(%d).Pow(%d) = %d, want %d", base, e, got, want)
			}
		}
		for i := 0; i < 200; i++ {
			e := src.Uint64()
			if got, want := tab.Pow(e), Pow(base, e); got != want {
				t.Fatalf("PowTable(%d).Pow(%d) = %d, want %d", base, e, got, want)
			}
		}
	}
}

// TestSizedPowTableMatchesPow: a table built for exponents up to a bound
// holds only the windows that bound reaches, and for every window count
// its Pow and PowBlock equal the naive chain at random exponents below
// the bound and at the bound itself; an exponent past the bound panics.
func TestSizedPowTableMatchesPow(t *testing.T) {
	src := rng.NewSource(13)
	for windows := 1; windows <= powWindows; windows++ {
		top := uint64(1)<<(powWindowBits*windows) - 1 // the largest bound of this window count
		if windows == powWindows {
			top = ^uint64(0)
		}
		low := top>>powWindowBits + 1 // the smallest bound of this window count
		for _, bound := range []uint64{low, low + src.Uint64()%(top-low), top} {
			if windows == 1 && bound == low {
				bound = 0 // a bound of 0 still gets one window
			}
			base := Reduce(src.Uint64())
			tab := NewPowTableUpTo(base, bound)
			if tab.Windows() != windows {
				t.Fatalf("bound %d: %d windows, want %d", bound, tab.Windows(), windows)
			}
			es := []uint64{0, bound / 2, bound}
			for i := 0; i < 100; i++ {
				e := src.Uint64()
				if bound != ^uint64(0) {
					e %= bound + 1
				}
				es = append(es, e)
			}
			dst := make([]Elem, len(es))
			tab.PowBlock(dst, es)
			for i, e := range es {
				want := Pow(base, e)
				if got := tab.Pow(e); got != want {
					t.Fatalf("bound %d: Pow(%d) = %d, want %d", bound, e, got, want)
				}
				if dst[i] != want {
					t.Fatalf("bound %d: PowBlock(%d) = %d, want %d", bound, e, dst[i], want)
				}
			}
			if bound == ^uint64(0) {
				continue
			}
			for name, call := range map[string]func(){
				"Pow":      func() { tab.Pow(bound + 1) },
				"PowBlock": func() { tab.PowBlock(make([]Elem, 2), []uint64{1, bound + 1}) },
			} {
				want := fmt.Sprintf("field: exponent %d exceeds the PowTable bound %d", bound+1, bound)
				if got := panicText(call); got != want {
					t.Fatalf("%s past bound %d: panic %q, want %q", name, bound, got, want)
				}
			}
		}
	}
	if w := NewPowTable(3).Windows(); w != powWindows {
		t.Fatalf("NewPowTable holds %d windows, want %d", w, powWindows)
	}
}

// panicText runs f and returns the text it panicked with, or "" when it
// returned normally.
func panicText(f func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestCachedInvMatchesInv: the cached small-magnitude inverse path must
// be indistinguishable from the Fermat chain.
func TestCachedInvMatchesInv(t *testing.T) {
	cases := []Elem{0, 1, 2, 3, invCacheMax - 1, invCacheMax, invCacheMax + 1,
		Elem(P - 1), Elem(P - 2), Elem(P - invCacheMax), Elem(P - invCacheMax - 1)}
	src := rng.NewSource(9)
	for i := 0; i < 100; i++ {
		cases = append(cases, Reduce(src.Uint64()))
	}
	for _, a := range cases {
		if got, want := CachedInv(a), Inv(a); got != want {
			t.Fatalf("CachedInv(%d) = %d, want %d", a, got, want)
		}
		if a != 0 {
			if p := Mul(a, CachedInv(a)); p != 1 {
				t.Fatalf("a * CachedInv(a) = %d for a = %d, want 1", p, a)
			}
		}
	}
}

var benchSink Elem

// BenchmarkFieldPowNaive is the pre-PR per-update exponentiation cost:
// one full square-and-multiply chain over a 61-bit exponent.
func BenchmarkFieldPowNaive(b *testing.B) {
	base := Reduce(0x9e3779b97f4a7c15)
	var acc Elem
	for i := 0; i < b.N; i++ {
		acc ^= Pow(base, uint64(i)|1<<60)
	}
	benchSink = acc
}

// BenchmarkFieldPowWindowed is the same exponentiation served by the
// fixed-base window table (construction cost excluded: one table serves
// millions of updates per Spec).
func BenchmarkFieldPowWindowed(b *testing.B) {
	tab := NewPowTable(Reduce(0x9e3779b97f4a7c15))
	b.ResetTimer()
	var acc Elem
	for i := 0; i < b.N; i++ {
		acc ^= tab.Pow(uint64(i) | 1<<60)
	}
	benchSink = acc
}

// BenchmarkFieldPowTableBuild measures the amortized table construction.
func BenchmarkFieldPowTableBuild(b *testing.B) {
	base := Reduce(0x9e3779b97f4a7c15)
	for i := 0; i < b.N; i++ {
		benchSink = NewPowTable(base).win[0][1]
	}
}

// BenchmarkFieldInv is the full Fermat inversion the decode path used to
// pay per OneSparse recovery.
func BenchmarkFieldInv(b *testing.B) {
	var acc Elem
	for i := 0; i < b.N; i++ {
		acc ^= Inv(Elem(i%invCacheMax + 1))
	}
	benchSink = acc
}

// BenchmarkFieldInvCached is the same small-magnitude inversions served
// from the cache.
func BenchmarkFieldInvCached(b *testing.B) {
	CachedInv(1) // warm the table outside the timed region
	b.ResetTimer()
	var acc Elem
	for i := 0; i < b.N; i++ {
		acc ^= CachedInv(Elem(i%invCacheMax + 1))
	}
	benchSink = acc
}
