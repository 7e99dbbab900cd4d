package l0

// Columnar sketch state, for players and the referee alike. A Bank holds
// the one-sparse cells of a whole block of vectors ("lanes") as
// parallel field-element slices, so a spec's updates for the entire
// block run as tight loops over flat arrays:
//
//   - the per-update terms (Reduce(index), z^{index+1}, the sampling
//     level) are computed for the whole block by the batched field
//     kernels (field.ReduceBlock, PowTable.PowBlock, hashing.LevelBlock)
//     before any cell is touched, and
//   - the scatter writes each update once, into a scratch cell at its
//     sampled level ℓ, and one top-down pass per touched lane then adds
//     the running sums into levels 0..ℓ, contiguous because lanes are
//     stored level-contiguously.
//
// On the referee side a lane is one decoded sketch: ReadLane and
// ReadLaneTolerant unpack a serialized sketch into a lane through the
// bulk 61-bit kernel (bitio.Reader.ReadUint61s) with range checks and
// error text fixed per element, AddLane merges a component's lanes into
// its root, and SampleLane/LaneIsZero recover from a lane.
//
// Bit-compatibility: a lane of the bank holds exactly the cells the
// scalar Spec.Update would produce for the same update sequence, and
// WriteLane emits exactly Sketch.Write's bits (bank_test.go proves byte
// equality of the serializations and equality of the checksums against
// the scalar reference).
//
// Everything here is allocation-free in steady state: buffers grow to
// the block's high-water mark and are reused; Reset scrubs only the
// cells the previous spec actually touched (tracked per lane by top).

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/field"
)

// Bank is the struct-of-arrays sketch state of one block of vertices
// under one Spec: lanes × levels one-sparse cells, stored lane-major so
// each lane's level range is contiguous. The zero value is ready for use
// after Reset.
type Bank struct {
	levels, lanes int
	// val/idx/fp hold cell component c of lane l, level v at
	// [l*levels + v] — the columnar split of oneSparse{valSum, idxSum,
	// fpSum}.
	val, idx, fp []field.Elem
	// top[l] is lane l's touched-level watermark: cells at levels >=
	// top[l] are untouched since the last Reset and therefore zero. It
	// bounds both the serialization's explicit cell writes and the next
	// Reset's scrub.
	top []int32
}

// NewBank returns an empty bank. Reset gives it its geometry.
func NewBank() *Bank { return &Bank{} }

// Reset prepares the bank for a fresh block of `lanes` sketches with
// `levels` cells each: every cell reads zero afterwards. Cost is
// proportional to the cells the previous use touched (plus reallocation
// when the geometry outgrows the buffers), not to the full geometry.
func (b *Bank) Reset(levels, lanes int) {
	// Scrub under the OLD geometry: the invariant is that every element
	// within the buffers' capacity is zero except those recorded by top.
	for lane := 0; lane < b.lanes; lane++ {
		if t := int(b.top[lane]); t > 0 {
			base := lane * b.levels
			clear(b.val[base : base+t])
			clear(b.idx[base : base+t])
			clear(b.fp[base : base+t])
			b.top[lane] = 0
		}
	}
	need := levels * lanes
	if cap(b.val) < need {
		b.val = make([]field.Elem, need)
		b.idx = make([]field.Elem, need)
		b.fp = make([]field.Elem, need)
	} else {
		b.val = b.val[:need]
		b.idx = b.idx[:need]
		b.fp = b.fp[:need]
	}
	if cap(b.top) < lanes {
		b.top = make([]int32, lanes)
	} else {
		b.top = b.top[:lanes]
	}
	b.levels, b.lanes = levels, lanes
}

// Levels returns the per-lane cell count of the current geometry.
func (b *Bank) Levels() int { return b.levels }

// Lanes returns the lane count of the current geometry.
func (b *Bank) Lanes() int { return b.lanes }

// AddLane merges lane src into lane dst cell-wise — vector addition of
// the two sketched vectors, for referee-side merging over banked state.
func (b *Bank) AddLane(dst, src int) {
	db, sb := dst*b.levels, src*b.levels
	field.AddBlock(b.val[db:db+b.levels], b.val[sb:sb+b.levels])
	field.AddBlock(b.idx[db:db+b.levels], b.idx[sb:sb+b.levels])
	field.AddBlock(b.fp[db:db+b.levels], b.fp[sb:sb+b.levels])
	if b.top[src] > b.top[dst] {
		b.top[dst] = b.top[src]
	}
}

// laneChunk is the number of cells one bulk kernel call moves: the
// lane codecs stage cells through a stack buffer of 3·laneChunk
// elements, so no shared scratch is needed and lanes of one bank may be
// serialized or decoded concurrently.
const laneChunk = 16

// cellBits is the serialized size of one cell: three 61-bit elements.
const cellBits = 3 * bitio.Uint61Width

// WriteLane serializes one lane exactly as Sketch.Write serializes the
// equivalent sketch: 3 × 61 bits per cell in level order. Cells below
// the lane's watermark go through the bulk 61-bit packer; cells above it
// are zero by the Reset invariant, so they are emitted as one bulk zero
// run — at sketch densities (a handful of touched levels out of ~30)
// that removes most per-cell serialization work.
func (b *Bank) WriteLane(w *bitio.Writer, lane int) {
	base := lane * b.levels
	t := int(b.top[lane])
	var raw [3 * laneChunk]uint64
	for lo := 0; lo < t; lo += laneChunk {
		hi := min(lo+laneChunk, t)
		for l := lo; l < hi; l++ {
			k := 3 * (l - lo)
			raw[k], raw[k+1], raw[k+2] = uint64(b.val[base+l]), uint64(b.idx[base+l]), uint64(b.fp[base+l])
		}
		w.WriteUint61s(raw[:3*(hi-lo)])
	}
	w.WriteZeros((b.levels - t) * cellBits)
}

// errOutOfRange is the rejection of a serialized element that is not a
// canonical field value.
var errOutOfRange = errors.New("l0: field element out of range")

// ReadLane deserializes one sketch serialized under sp (by WriteLane or
// Sketch.Write) into the given lane, replacing its cells. It rejects the
// message at its first bad element, in serialization order: a short
// message or an out-of-range element yields "l0: level ℓ: " wrapping
// bitio.ErrShortMessage or the range error. The bank must have sp's
// level count.
func (sp Spec) ReadLane(b *Bank, lane int, r *bitio.Reader) error {
	_, err := b.readLane(lane, r, true)
	return err
}

// ReadLaneTolerant deserializes one sketch while tolerating corrupted
// elements: it consumes exactly the sketch's fixed size, zeroes every
// cell holding an element that is not a canonical field value, and
// reports valid = false for such damage. The error is non-nil only when
// fewer bits remain than the sketch needs.
func (sp Spec) ReadLaneTolerant(b *Bank, lane int, r *bitio.Reader) (valid bool, err error) {
	if r.Remaining() < b.levels*cellBits {
		return false, bitio.ErrShortMessage
	}
	return b.readLane(lane, r, false)
}

// readLane unpacks a lane's cells chunk by chunk. Strict reads stop at
// the first out-of-range element; when the message runs short, the
// elements that still fit are range-checked first, so the reported level
// is the one an element-at-a-time reader would have stopped at.
// Tolerant reads zero each damaged cell instead.
func (b *Bank) readLane(lane int, r *bitio.Reader, strict bool) (valid bool, err error) {
	base := lane * b.levels
	valid = true
	top := int32(0)
	b.top[lane] = int32(b.levels) // a read that fails midway leaves any cell dirty
	var raw [3 * laneChunk]uint64
	for lo := 0; lo < b.levels; lo += laneChunk {
		hi := min(lo+laneChunk, b.levels)
		chunk := raw[:3*(hi-lo)]
		short := r.ReadUint61s(chunk) != nil
		if short {
			chunk = chunk[:r.Remaining()/bitio.Uint61Width]
			_ = r.ReadUint61s(chunk)
		}
		for k := 0; k+3 <= len(chunk); k += 3 {
			l := base + lo + k/3
			v, i, f := chunk[k], chunk[k+1], chunk[k+2]
			if v >= field.P || i >= field.P || f >= field.P {
				if strict {
					bad := k
					for chunk[bad] < field.P {
						bad++
					}
					return false, fmt.Errorf("l0: level %d: %w", lo+bad/3, errOutOfRange)
				}
				v, i, f, valid = 0, 0, 0, false
			}
			b.val[l], b.idx[l], b.fp[l] = field.Elem(v), field.Elem(i), field.Elem(f)
			if v|i|f != 0 {
				top = int32(lo + k/3 + 1)
			}
		}
		if short {
			for _, e := range chunk[len(chunk)/3*3:] {
				if e >= field.P {
					return false, fmt.Errorf("l0: level %d: %w", lo+len(chunk)/3, errOutOfRange)
				}
			}
			return false, fmt.Errorf("l0: level %d: %w", lo+len(chunk)/3, bitio.ErrShortMessage)
		}
	}
	b.top[lane] = top
	return valid, nil
}

// SampleLane attempts to recover one nonzero coordinate of the vector
// sketched in one lane: it scans the lane's levels from the most
// aggressive subsampling down and returns the first successful
// one-sparse recovery. For a nonzero vector it succeeds with constant
// probability over the Spec's coins; for the zero vector it reports
// ok = false. Levels at or above the lane's watermark are zero and could
// never recover, so the scan starts below it.
func (sp Spec) SampleLane(b *Bank, lane int) (index uint64, value int64, ok bool) {
	base := lane * b.levels
	for l := int(b.top[lane]) - 1; l >= 0; l-- {
		cell := oneSparse{valSum: b.val[base+l], idxSum: b.idx[base+l], fpSum: b.fp[base+l]}
		if idx, v, ok := cell.recover(sp.universe, sp.powZ); ok {
			return idx, v, true
		}
	}
	return 0, 0, false
}

// LaneIsZero reports whether every cell of the lane is zero.
func (b *Bank) LaneIsZero(lane int) bool {
	base := lane * b.levels
	for l := base; l < base+int(b.top[lane]); l++ {
		if b.val[l]|b.idx[l]|b.fp[l] != 0 {
			return false
		}
	}
	return true
}

// LaneChecksum digests one lane into 32 bits: an FNV-1a fold over the
// canonical field elements of every cell, zero cells included.
// Resilient encodings append it after a sketch stack so the referee can
// detect in-range bit flips that a plain range check cannot.
func (b *Bank) LaneChecksum(lane int) uint32 {
	base := lane * b.levels
	h := uint64(checksumOffset)
	for l := base; l < base+b.levels; l++ {
		h = checksumMix(h, uint64(b.val[l]))
		h = checksumMix(h, uint64(b.idx[l]))
		h = checksumMix(h, uint64(b.fp[l]))
	}
	return uint32(h) ^ uint32(h>>32)
}

// BlockUpdates collects the ±1 updates of a whole block of vertices —
// (lane, index, sign) columns — so one gathered list drives every spec's
// UpdateBlock. Add numbers the lanes in first-touch order, so the
// per-spec scratch is sized by the lanes the list touches, not by the
// bank. The struct also carries the scratch that UpdateBlock fills
// (levels, fingerprint terms, reduced indexes, per-level sums); all
// columns grow to the block's high-water mark and are reused.
type BlockUpdates struct {
	index []uint64
	neg   []bool
	slot  []int32 // update i's lane is touched[slot[i]]

	// touched lists the lanes the updates touch, in first-touch order;
	// slotOf[lane] is the lane's position there plus one, zero for an
	// untouched lane.
	touched []int32
	slotOf  []int32

	// Scratch recomputed by each UpdateBlock call.
	lvl  []int32
	fpT  []field.Elem
	idxT []field.Elem
	exp  []uint64
	// Touched lane k owns the scratch cells sums[off[k]:off[k+1]], one
	// per level up to the highest its updates sampled to: cell off[k]+ℓ
	// sums the terms of the lane's updates sampled to exactly level ℓ.
	// UpdateBlock leaves off and sums all zero.
	off  []int32
	sums []oneSparse
}

// Reset empties the update list, keeping capacity.
func (u *BlockUpdates) Reset() {
	for _, lane := range u.touched {
		u.slotOf[lane] = 0
	}
	u.touched = u.touched[:0]
	u.index = u.index[:0]
	u.neg = u.neg[:0]
	u.slot = u.slot[:0]
}

// Add appends one ±1 update: delta +1 when negative is false, −1 when
// true, at the given index, for the given lane of the bank.
func (u *BlockUpdates) Add(lane int, index uint64, negative bool) {
	if lane >= len(u.slotOf) {
		grown := make([]int32, max(lane+1, 2*len(u.slotOf)))
		copy(grown, u.slotOf)
		u.slotOf = grown
	}
	k := u.slotOf[lane]
	if k == 0 {
		u.touched = append(u.touched, int32(lane))
		k = int32(len(u.touched))
		u.slotOf[lane] = k
	}
	u.index = append(u.index, index)
	u.neg = append(u.neg, negative)
	u.slot = append(u.slot, k-1)
}

// Len returns the number of collected updates.
func (u *BlockUpdates) Len() int { return len(u.index) }

// ensureScratch sizes the per-update scratch for m updates and the cell
// offsets for the touched lanes.
func (u *BlockUpdates) ensureScratch(m int) {
	if cap(u.lvl) < m {
		u.lvl = make([]int32, m)
		u.fpT = make([]field.Elem, m)
		u.idxT = make([]field.Elem, m)
		u.exp = make([]uint64, m)
	}
	u.lvl = u.lvl[:m]
	u.fpT = u.fpT[:m]
	u.idxT = u.idxT[:m]
	u.exp = u.exp[:m]
	if n := len(u.touched) + 1; cap(u.off) < n {
		u.off = make([]int32, n)
	} else {
		u.off = u.off[:n]
	}
}

// ensureSums sizes the per-level sums for n cells. Capacity past the
// current length is all zero, so they need no clearing when resliced.
// The cell count varies from spec to spec, so growth doubles.
func (u *BlockUpdates) ensureSums(n int) {
	if cap(u.sums) < n {
		u.sums = make([]oneSparse, n, 2*n)
	}
	u.sums = u.sums[:n]
}

// UpdateBlock applies every collected ±1 update to the bank — the
// batched equivalent of one Spec.Update call per (lane, index, delta)
// triple, bit-identical by the exactness of the field ops:
//
//	w = ±1, so w·Reduce(i) is Reduce(i) or Neg(Reduce(i)) and
//	w·z^{i+1} is z^{i+1} or Neg(z^{i+1}) — no per-level multiplies at
//	all, where the scalar path pays two Muls per touched level.
//
// The sampling levels, fingerprint powers, and reduced indexes are
// computed for the whole block up front by the batched kernels. Each
// touched lane then owns one scratch cell per level up to its highest
// sampled one; the scatter adds each update's terms to the one cell of
// its lane and sampled level, and a fold walks each touched lane's cells
// from the top down, adding the running suffix sum into the bank and
// zeroing the scratch: the bank's level ℓ receives the sum
// of the terms of every update sampled to ℓ or above, exactly what
// adding each update to levels 0..ℓ gives, since GF(p) addition is exact
// and commutative. The bank must have been Reset with this Spec's level
// count and a lane count covering every update's lane. Allocation-free
// after the scratch reaches the block's high-water mark.
func (sp Spec) UpdateBlock(b *Bank, u *BlockUpdates) {
	m := u.Len()
	if m == 0 {
		return
	}
	if b.levels != sp.levels {
		panic(fmt.Sprintf("l0: UpdateBlock bank has %d levels, spec has %d", b.levels, sp.levels))
	}
	for _, ix := range u.index {
		if ix >= sp.universe {
			panic(fmt.Sprintf("l0: index %d outside universe %d", ix, sp.universe))
		}
	}
	for _, lane := range u.touched {
		if int(lane) >= b.lanes {
			panic(fmt.Sprintf("l0: lane %d outside the bank's %d lanes", lane, b.lanes))
		}
	}
	u.ensureScratch(m)
	field.ReduceBlock(u.idxT, u.index)
	for i, ix := range u.index {
		u.exp[i] = ix + 1
	}
	if sp.zpow != nil {
		sp.zpow.PowBlock(u.fpT, u.exp)
	} else {
		for i, e := range u.exp {
			u.fpT[i] = field.Pow(sp.z, e)
		}
	}
	sp.hash.LevelBlock(u.index, sp.levels-1, u.lvl)

	off := u.off
	for i, k := range u.slot {
		off[k+1] = max(off[k+1], u.lvl[i]+1)
	}
	for k := range u.touched {
		off[k+1] += off[k]
	}
	u.ensureSums(int(off[len(u.touched)]))
	sums := u.sums
	for i, k := range u.slot {
		vT, iT, fT := field.Elem(1), u.idxT[i], u.fpT[i]
		if u.neg[i] {
			vT = field.Elem(field.P - 1)
			iT = field.Neg(iT)
			fT = field.Neg(fT)
		}
		c := &sums[off[k]+u.lvl[i]]
		c.valSum = field.Add(c.valSum, vT)
		c.idxSum = field.Add(c.idxSum, iT)
		c.fpSum = field.Add(c.fpSum, fT)
	}
	for k, lane := range u.touched {
		own := sums[off[k]:off[k+1]]
		h := len(own)
		base := int(lane) * b.levels
		val, idx, fp := b.val[base:base+h], b.idx[base:base+h], b.fp[base:base+h]
		var run oneSparse
		for l := h - 1; l >= 0; l-- {
			run.Add(own[l])
			own[l] = oneSparse{}
			val[l] = field.Add(val[l], run.valSum)
			idx[l] = field.Add(idx[l], run.idxSum)
			fp[l] = field.Add(fp[l], run.fpSum)
		}
		b.top[lane] = max(b.top[lane], int32(h))
	}
	clear(off)
}
