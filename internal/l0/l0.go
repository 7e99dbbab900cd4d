// Package l0 implements ℓ₀-sampling linear sketches over signed integer
// vectors, the building block of the AGM graph sketches (package agm).
//
// A one-sparse cell exactly recovers a vector with at most one nonzero
// coordinate and detects (with high probability, via a polynomial
// fingerprint) that a vector has more than one. A sampler stacks
// one-sparse cells over geometrically subsampled index sets, so that for
// any nonzero vector some level is 1-sparse with constant probability and
// a uniform-ish nonzero coordinate can be recovered.
//
// Everything is linear: sketches of two vectors can be added cell-wise to
// obtain the sketch of the sum, which is exactly what lets the AGM referee
// merge vertex sketches into component sketches with all internal edges
// cancelling.
//
// Sketch state lives in a Bank (bank.go), players and referee alike. The
// scalar Sketch below serves the service benchmark's update kernel probe
// and the bit-serial test references.
package l0

import (
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/field"
	"repro/internal/hashing"
	"repro/internal/rng"
)

// maxMagnitude bounds the |value| a one-sparse cell will report when
// mapping a field element back to a signed integer. Graph sketches only
// use ±1 deltas with bounded accumulation, so a small bound suffices and
// everything above it is treated as "not one-sparse".
const maxMagnitude = 1 << 20

// oneSparse is a linear sketch that recovers vectors with exactly one
// nonzero coordinate: it maintains in GF(p) the value sum, the
// index-weighted sum and a fingerprint sum Σ w_i·z^{i+1}.
type oneSparse struct {
	valSum field.Elem // Σ w_i
	idxSum field.Elem // Σ w_i · i
	fpSum  field.Elem // Σ w_i · z^{i+1}
}

// update adds delta at the given index. fpTerm is the already-
// exponentiated fingerprint point z^{index+1} (z^{i+1} rather than z^i so
// that index 0 still contributes to the fingerprint): a sketch stacks one
// cell per subsampling level and an index at level ℓ updates ℓ+1 cells,
// so the caller hoists the single exponentiation out of the per-level
// loop — see Spec.Update — instead of paying a full square-and-multiply
// chain per cell.
func (o *oneSparse) update(index uint64, delta int64, fpTerm field.Elem) {
	w := elemFromSigned(delta)
	o.valSum = field.Add(o.valSum, w)
	o.idxSum = field.Add(o.idxSum, field.Mul(w, field.Reduce(index)))
	o.fpSum = field.Add(o.fpSum, field.Mul(w, fpTerm))
}

// Add merges another cell into o (vector addition).
func (o *oneSparse) Add(other oneSparse) {
	o.valSum = field.Add(o.valSum, other.valSum)
	o.idxSum = field.Add(o.idxSum, other.idxSum)
	o.fpSum = field.Add(o.fpSum, other.fpSum)
}

// recover returns (index, value) if the sketched vector has exactly one
// nonzero coordinate in [0, universe). The fingerprint makes a false
// positive on a >1-sparse vector occur with probability at most
// universe/p over the choice of z. powZ serves the fingerprint
// exponentiation, from the spec's fixed-base window table in
// Spec.SampleLane. Value sums are inverted through field.CachedInv: they
// are small signed multiplicities here (the signedFromElem guard has
// already passed), exactly the case the inverse cache serves without a
// full Fermat chain.
func (o *oneSparse) recover(universe uint64, powZ func(uint64) field.Elem) (index uint64, value int64, ok bool) {
	if o.valSum == 0 {
		return 0, 0, false
	}
	v, ok := signedFromElem(o.valSum)
	if !ok {
		return 0, 0, false
	}
	idx := field.Mul(o.idxSum, field.CachedInv(o.valSum))
	if uint64(idx) >= universe {
		return 0, 0, false
	}
	if field.Mul(o.valSum, powZ(uint64(idx)+1)) != o.fpSum {
		return 0, 0, false
	}
	return uint64(idx), v, true
}

// write serializes the cell (3 × 61 bits).
func (o *oneSparse) write(w *bitio.Writer) {
	w.WriteUint(uint64(o.valSum), 61)
	w.WriteUint(uint64(o.idxSum), 61)
	w.WriteUint(uint64(o.fpSum), 61)
}

// elemFromSigned embeds a signed integer into GF(p).
func elemFromSigned(v int64) field.Elem {
	if v >= 0 {
		return field.Reduce(uint64(v))
	}
	return field.Neg(field.Reduce(uint64(-v)))
}

// signedFromElem inverts elemFromSigned for |v| <= maxMagnitude.
func signedFromElem(e field.Elem) (int64, bool) {
	if uint64(e) <= maxMagnitude {
		return int64(e), true
	}
	if uint64(e) >= field.P-maxMagnitude {
		return -int64(field.P - uint64(e)), true
	}
	return 0, false
}

// Spec fixes the public randomness of one ℓ₀-sampler instance: the index
// universe, the number of subsampling levels, the level hash and the
// fingerprint point. Two parties constructing a Spec from the same public
// coins obtain interchangeable sketches.
type Spec struct {
	universe uint64
	levels   int
	hash     *hashing.Family
	z        field.Elem
	// zpow is the fixed-base window table for z, shared by every copy of
	// this Spec (specs are passed by value; the table is immutable after
	// NewSpec, so sharing across the engine's workers is safe). It turns
	// the per-update fingerprint exponentiation into a handful of
	// multiplies. Fingerprint exponents are index+1 ≤ universe, so it
	// holds only the windows the universe reaches. nil only for
	// zero-value Specs, which fall back to the naive chain.
	zpow *field.PowTable
}

// NewSpec derives a sampler specification from public coins. Levels
// covers the universe: level ℓ subsamples indices with probability 2^-ℓ.
func NewSpec(universe uint64, coins *rng.PublicCoins) Spec {
	levels := 2
	for u := universe; u > 0; u >>= 1 {
		levels++
	}
	src := coins.Derive("l0-spec").Source()
	z := field.Reduce(src.Uint64())
	if z == 0 {
		z = 1
	}
	return Spec{
		universe: universe,
		levels:   levels,
		hash:     hashing.New(2, coins.Derive("l0-hash").Source()),
		z:        z,
		zpow:     field.NewPowTableUpTo(z, universe),
	}
}

// powZ returns z^e through the window table when available.
func (sp Spec) powZ(e uint64) field.Elem {
	if sp.zpow != nil {
		return sp.zpow.Pow(e)
	}
	return field.Pow(sp.z, e)
}

// Universe returns the index universe size.
func (sp Spec) Universe() uint64 { return sp.universe }

// Levels returns the number of subsampling levels.
func (sp Spec) Levels() int { return sp.levels }

// Sketch is the scalar ℓ₀-sampling sketch of one vector under a Spec:
// one heap cell per level, updated one index at a time. The service
// benchmark's kernel probe times Update on it as the per-update
// reference for UpdateBlock, and the bit-serial test references
// serialize it with Write.
type Sketch struct {
	cells []oneSparse
}

// sketchPool recycles Sketch scratch buffers between AcquireSketch and
// ReleaseSketch. Pooling is invisible in the bits: AcquireSketch always
// hands back an all-zero sketch, and pooled sketches are plain value
// buffers with no identity.
var sketchPool = sync.Pool{New: func() any { return new(Sketch) }}

// AcquireSketch returns an all-zero sketch for sp from the scratch pool.
// The service benchmark's kernel probe (perfbench) acquires one per
// lane of its l0.update timing, as do the scalar test references;
// callers that forget ReleaseSketch only lose the reuse, never
// correctness.
func (sp Spec) AcquireSketch() *Sketch {
	sk := sketchPool.Get().(*Sketch)
	if cap(sk.cells) < sp.levels {
		sk.cells = make([]oneSparse, sp.levels)
		return sk
	}
	sk.cells = sk.cells[:sp.levels]
	clear(sk.cells)
	return sk
}

// ReleaseSketch returns a sketch obtained from AcquireSketch to the
// scratch pool; the kernel probe releases each lane's sketch after
// timing it. The sketch must not be used afterwards.
func ReleaseSketch(sk *Sketch) {
	if sk != nil {
		sketchPool.Put(sk)
	}
}

// Update adds delta to the vector coordinate at index — the scalar
// update the kernel probe times as l0.update_ns. The fingerprint power
// z^{index+1} is computed exactly once per call, through the fixed-base
// window table, and reused by every level the index participates in.
func (sp Spec) Update(sk *Sketch, index uint64, delta int64) {
	if index >= sp.universe {
		panic(fmt.Sprintf("l0: index %d outside universe %d", index, sp.universe))
	}
	lvl := sp.hash.Level(index, sp.levels-1)
	fpTerm := sp.powZ(index + 1)
	// Index participates in levels 0..lvl.
	for l := 0; l <= lvl; l++ {
		sk.cells[l].update(index, delta, fpTerm)
	}
}

// Write serializes the sketch cell by cell, bit-serially: 3 × 61 bits
// per level in level order, the layout Bank.WriteLane reproduces with
// its bulk packer. The test references of the agm and dynstream packages
// build their expected bytes with it, and the scalar side of the bench
// guard's engine pair times it.
func (sk *Sketch) Write(w *bitio.Writer) {
	for i := range sk.cells {
		sk.cells[i].write(w)
	}
}

// checksumOffset and checksumPrime are the FNV-1a parameters of the
// resilient-encoding sketch checksum (Bank.LaneChecksum).
const (
	checksumOffset = 0xcbf29ce484222325
	checksumPrime  = 0x00000100000001b3
)

// checksumMix folds one field element (as 8 little-endian bytes) into a
// running FNV-1a state.
func checksumMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= checksumPrime
		v >>= 8
	}
	return h
}
