package l0

// Columnar sketch state, for players and the referee alike. The scalar
// path builds one heap Sketch per (vertex, spec): an []OneSparse whose
// cells are updated through per-call pointer chasing and serialized cell
// by cell. A Bank instead holds the one-sparse cells of a whole block of
// vertices ("lanes") as parallel field-element slices, so a spec's
// updates for the entire block run as tight loops over flat arrays:
//
//   - the per-update terms (Reduce(index), z^{index+1}, the sampling
//     level) are computed for the whole block by the batched field
//     kernels (field.ReduceBlock, PowTable.PowBlock, hashing.LevelBlock)
//     before any cell is touched, and
//   - the scatter into levels 0..ℓ is a contiguous AddScalarBlock per
//     component, because lanes are stored level-contiguously.
//
// On the referee side a lane is one decoded sketch: ReadLane and
// ReadLaneTolerant unpack a serialized sketch into a lane through the
// bulk 61-bit kernel (bitio.Reader.ReadUint61s) with the scalar
// reader's range checks and error text, AddLane merges a component's
// lanes into its root, and SampleLane/LaneIsZero recover from a lane
// exactly as Sample/IsZero do from the equivalent Sketch.
//
// Bit-compatibility: a lane of the bank holds exactly the cells the
// scalar Spec.Update would produce for the same update sequence
// (bank_test.go proves byte equality of the serializations and equality
// of the checksums), so swapping the bank in is transcript-invisible.
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
	// [l*levels + v] — the columnar split of OneSparse{valSum, idxSum,
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

// addRange adds (v, i, f) to lane's cells at levels 0..lvl — the scatter
// of one ±1 update whose index sampled to level lvl.
func (b *Bank) addRange(lane int, lvl int32, v, i, f field.Elem) {
	base := lane * b.levels
	end := base + int(lvl) + 1
	field.AddScalarBlock(b.val[base:end], v)
	field.AddScalarBlock(b.idx[base:end], i)
	field.AddScalarBlock(b.fp[base:end], f)
	if lvl+1 > b.top[lane] {
		b.top[lane] = lvl + 1
	}
}

// AddLane merges lane src into lane dst cell-wise — the columnar form of
// Sketch.Add, for referee-side merging over banked state.
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

// ReadLane deserializes one sketch serialized under sp (by Sketch.Write
// or WriteLane) into the given lane, replacing its cells. It rejects the
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

// SampleLane is Sample for the sketch held in one lane: it scans the
// lane's levels from the most aggressive subsampling down and returns
// the first successful one-sparse recovery. Levels at or above the
// lane's watermark are zero and could never recover, so the scan starts
// below it.
func (sp Spec) SampleLane(b *Bank, lane int) (index uint64, value int64, ok bool) {
	base := lane * b.levels
	for l := int(b.top[lane]) - 1; l >= 0; l-- {
		cell := OneSparse{valSum: b.val[base+l], idxSum: b.idx[base+l], fpSum: b.fp[base+l]}
		if idx, v, ok := cell.recover(sp.universe, sp.powZ); ok {
			return idx, v, true
		}
	}
	return 0, 0, false
}

// LaneIsZero reports whether every cell of the lane is zero: IsZero for
// the sketch held in one lane.
func (b *Bank) LaneIsZero(lane int) bool {
	base := lane * b.levels
	for l := base; l < base+int(b.top[lane]); l++ {
		if b.val[l]|b.idx[l]|b.fp[l] != 0 {
			return false
		}
	}
	return true
}

// LaneChecksum digests one lane with the same FNV-1a fold as
// Sketch.Checksum, zero cells included, so banked and scalar encodings
// produce identical resilient checksums.
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
// UpdateBlock. The struct also carries the per-spec scratch columns
// (levels, fingerprint terms, reduced indexes) that UpdateBlock fills;
// all columns grow to the block's high-water mark and are reused.
type BlockUpdates struct {
	index []uint64
	neg   []bool
	lane  []int32

	// Scratch recomputed by each UpdateBlock call.
	lvl  []int32
	fpT  []field.Elem
	idxT []field.Elem
	exp  []uint64
}

// Reset empties the update list, keeping capacity.
func (u *BlockUpdates) Reset() {
	u.index = u.index[:0]
	u.neg = u.neg[:0]
	u.lane = u.lane[:0]
}

// Add appends one ±1 update: delta +1 when negative is false, −1 when
// true, at the given index, for the given lane of the bank.
func (u *BlockUpdates) Add(lane int, index uint64, negative bool) {
	u.index = append(u.index, index)
	u.neg = append(u.neg, negative)
	u.lane = append(u.lane, int32(lane))
}

// Len returns the number of collected updates.
func (u *BlockUpdates) Len() int { return len(u.index) }

// ensureScratch sizes the scratch columns for m updates.
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
// computed for the whole block up front by the batched kernels, then a
// single scatter pass adds each update's terms to its lane's contiguous
// level range. The bank must have been Reset with this Spec's level
// count and a lane count covering every update's lane. Allocation-free
// after the scratch columns reach the block's high-water mark.
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
	for i := 0; i < m; i++ {
		vT, iT, fT := field.Elem(1), u.idxT[i], u.fpT[i]
		if u.neg[i] {
			vT = field.Elem(field.P - 1)
			iT = field.Neg(iT)
			fT = field.Neg(fT)
		}
		b.addRange(int(u.lane[i]), u.lvl[i], vT, iT, fT)
	}
}
