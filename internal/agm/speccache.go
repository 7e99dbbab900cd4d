package agm

// Spec memoization for the sketch hot path. The pre-optimization Sketch
// called specs(view.N, cfg, coins) once per vertex, so the n vertices of
// one run re-derived the identical hash families and fingerprint tables
// n times; the referee then derived them once more. Deriving a spec
// stack is a pure function of (universe, stack size, coin subtree seed) —
// rng.PublicCoins is itself a pure function of its seed — so the stacks
// are memoized process-wide under exactly that key. A cache hit returns
// the same immutable []l0.Spec value a fresh derivation would produce,
// bit for bit; specs_test.go asserts the equivalence.

import (
	"sync"

	"repro/internal/l0"
	"repro/internal/rng"
)

// specCacheMaxEntries bounds the cache. A spec's window table covers
// exponents up to its universe n², so one entry for an n=10k forest run
// holds 96 specs of 4 windows (8 KiB) each, ~0.75 MiB, and the bound
// caps worst-case memory near 50 MiB while keeping every stack of any
// realistic sweep (a sweep revisits few (n, cfg, seed) keys, many times
// each) resident; an n=256 forest entry is 66 specs of 3 windows,
// ~0.4 MiB. Eviction drops the whole map: entries are pure derivations,
// so losing them costs only re-derivation.
const specCacheMaxEntries = 64

// specKey identifies one derived sampler stack.
type specKey struct {
	universe uint64
	count    int
	seed     uint64
}

var specCache struct {
	sync.Mutex
	m map[specKey][]l0.Spec
}

// derivedSpecs returns count sampler specs over the given universe,
// derived from root.DeriveIndex(0..count-1) — memoized process-wide.
func derivedSpecs(universe uint64, count int, root *rng.PublicCoins) []l0.Spec {
	key := specKey{universe: universe, count: count, seed: root.Seed()}
	specCache.Lock()
	if cached, ok := specCache.m[key]; ok {
		specCache.Unlock()
		return cached
	}
	specCache.Unlock()

	// Derive outside the lock: stacks for large n are expensive, and the
	// derivation is deterministic, so two racing derivations of the same
	// key produce interchangeable values.
	out := deriveSpecsFresh(universe, count, root)

	specCache.Lock()
	if specCache.m == nil || len(specCache.m) >= specCacheMaxEntries {
		specCache.m = make(map[specKey][]l0.Spec)
	}
	specCache.m[key] = out
	specCache.Unlock()
	return out
}

// deriveSpecsFresh is the uncached derivation, kept separate so tests can
// compare memoized stacks against a from-scratch derivation.
func deriveSpecsFresh(universe uint64, count int, root *rng.PublicCoins) []l0.Spec {
	out := make([]l0.Spec, count)
	for i := range out {
		out[i] = l0.NewSpec(universe, root.DeriveIndex(i))
	}
	return out
}
