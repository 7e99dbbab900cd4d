package field

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// This file holds the amortized-exponentiation machinery behind the
// sketch hot path. A OneSparse fingerprint update needs z^{e} for a
// per-update exponent e; the naive square-and-multiply chain in Pow costs
// ~61 squarings plus up to 61 multiplies per call. A PowTable fixes the
// base once and answers an exponent with at most one multiply per window
// beyond the first by precomputing all window digits — the classic
// fixed-base windowed method. It holds only the windows its largest
// exponent reaches: a sketch's exponents never exceed its index universe
// (n² for an n-vertex graph, 17 bits at n = 256), so its table is a few
// windows, not the 8 a 64-bit exponent needs. The table is immutable
// after construction, so it can be shared freely across goroutines (the
// execution engine's workers all read the same per-Spec table).

const (
	// powWindowBits is the window width in bits. 8 gives 256-entry
	// windows, 2 KiB each, each lookup replacing 8 square-and-multiply
	// steps by one table multiply.
	powWindowBits = 8
	powWindowSize = 1 << powWindowBits
	// powWindows covers any uint64 exponent (64 / powWindowBits).
	powWindows = 64 / powWindowBits
)

// PowTable answers a^e for a fixed base a and every e up to the bound it
// was built for. Memory cost: one powWindowSize-element window (2 KiB)
// per powWindowBits bits of the bound, 16 KiB for the full 64-bit table.
type PowTable struct {
	// win[w][b] = base^(b << (powWindowBits*w)), for the windows the
	// bound reaches.
	win [][powWindowSize]Elem
	// bound is the largest exponent the table serves.
	bound uint64
}

// NewPowTable builds the full table for the given base: all powWindows
// windows, serving every uint64 exponent.
func NewPowTable(base Elem) *PowTable { return NewPowTableUpTo(base, math.MaxUint64) }

// NewPowTableUpTo builds the table for exponents 0..maxExp: the
// ceil(bits.Len64(maxExp) / powWindowBits) windows those exponents
// reach, at least one. Construction costs powWindowSize multiplies per
// window, amortized by the millions of Pow calls a sketch run issues
// against one base.
func NewPowTableUpTo(base Elem, maxExp uint64) *PowTable {
	windows := max(1, (bits.Len64(maxExp)+powWindowBits-1)/powWindowBits)
	t := &PowTable{win: make([][powWindowSize]Elem, windows), bound: maxExp}
	step := base // base^(2^(powWindowBits*w)) for the current window
	for w := range t.win {
		row := &t.win[w]
		row[0] = 1
		for b := 1; b < powWindowSize; b++ {
			row[b] = Mul(row[b-1], step)
		}
		// Advance to the next window's generator: step^powWindowSize.
		step = Mul(row[powWindowSize-1], step)
	}
	return t
}

// Windows returns the number of windows the table holds, each
// powWindowSize elements (2 KiB).
func (t *PowTable) Windows() int { return len(t.win) }

// Pow returns base^e. The result is bit-identical to Pow(base, e): both
// compute the same product of the same field elements, and GF(p)
// multiplication is exact. It panics when e exceeds the table's bound.
func (t *PowTable) Pow(e uint64) Elem {
	if e > t.bound {
		t.exceeded(e)
	}
	result := Elem(1)
	started := false
	for w := 0; e != 0; w++ {
		b := e & (powWindowSize - 1)
		e >>= powWindowBits
		if b == 0 {
			continue
		}
		if !started {
			result = t.win[w][b]
			started = true
			continue
		}
		result = Mul(result, t.win[w][b])
	}
	return result
}

// exceeded reports an exponent past the table's bound: the windows it
// would need were never built.
func (t *PowTable) exceeded(e uint64) {
	panic(fmt.Sprintf("field: exponent %d exceeds the PowTable bound %d", e, t.bound))
}

// invCacheMax bounds the magnitude of cached inverses. Decode paths
// invert OneSparse value sums, which for graph sketches are tiny signed
// edge multiplicities (almost always ±1), so a small table captures
// nearly every referee-side inversion.
const invCacheMax = 256

var (
	invCacheOnce sync.Once
	invCache     [invCacheMax + 1]Elem
)

// CachedInv returns Inv(a), serving small-magnitude arguments (|v| ≤
// invCacheMax for v or -v ≡ a mod P) from a lazily-built table instead of
// the full Pow(a, P-2) Fermat chain. Results are identical to Inv for
// every input; only the cost differs.
func CachedInv(a Elem) Elem {
	if a == 0 {
		return 0
	}
	if uint64(a) <= invCacheMax {
		invCacheOnce.Do(buildInvCache)
		return invCache[a]
	}
	if uint64(a) >= P-invCacheMax {
		// a ≡ -(P-a): Inv(-x) = -Inv(x).
		invCacheOnce.Do(buildInvCache)
		return Neg(invCache[P-uint64(a)])
	}
	return Inv(a)
}

func buildInvCache() {
	for v := uint64(1); v <= invCacheMax; v++ {
		invCache[v] = Inv(Elem(v))
	}
}
