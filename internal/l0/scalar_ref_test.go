package l0

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/field"
)

// The scalar sketch surface the Bank replaced, kept as the reference the
// lanes must match: one heap Sketch per vector, sampled level by level,
// checksummed cell by cell, read element by element through
// Reader.ReadUint and merged with Sketch.Add. The lane readers, AddLane,
// SampleLane, LaneIsZero and LaneChecksum are all checked against it.

// IsZero reports whether the cell is consistent with the all-zero vector.
func (o *oneSparse) IsZero() bool {
	return o.valSum == 0 && o.idxSum == 0 && o.fpSum == 0
}

// Recover is recover with the naive fingerprint exponentiation chain.
func (o *oneSparse) Recover(universe uint64, z field.Elem) (index uint64, value int64, ok bool) {
	return o.recover(universe, func(e uint64) field.Elem { return field.Pow(z, e) })
}

// NewSketch returns the all-zero sketch.
func (sp Spec) NewSketch() *Sketch {
	return &Sketch{cells: make([]oneSparse, sp.levels)}
}

// Sample attempts to recover one nonzero coordinate of the sketched
// vector, scanning levels from the most aggressive subsampling down.
func (sp Spec) Sample(sk *Sketch) (index uint64, value int64, ok bool) {
	for l := len(sk.cells) - 1; l >= 0; l-- {
		if idx, v, ok := sk.cells[l].recover(sp.universe, sp.powZ); ok {
			return idx, v, true
		}
	}
	return 0, 0, false
}

// IsZero reports whether every cell is consistent with the zero vector.
func (sk *Sketch) IsZero() bool {
	for i := range sk.cells {
		if !sk.cells[i].IsZero() {
			return false
		}
	}
	return true
}

// BitLen returns the serialized size of the sketch in bits.
func (sk *Sketch) BitLen() int { return len(sk.cells) * 3 * 61 }

// Checksum digests the sketch's cells with LaneChecksum's FNV-1a fold.
func (sk *Sketch) Checksum() uint32 {
	h := uint64(checksumOffset)
	for i := range sk.cells {
		h = checksumMix(h, uint64(sk.cells[i].valSum))
		h = checksumMix(h, uint64(sk.cells[i].idxSum))
		h = checksumMix(h, uint64(sk.cells[i].fpSum))
	}
	return uint32(h) ^ uint32(h>>32)
}

// readOneSparse deserializes a cell.
func readOneSparse(r *bitio.Reader) (oneSparse, error) {
	var o oneSparse
	for _, dst := range []*field.Elem{&o.valSum, &o.idxSum, &o.fpSum} {
		v, err := r.ReadUint(61)
		if err != nil {
			return o, err
		}
		if v >= field.P {
			return o, errors.New("l0: field element out of range")
		}
		*dst = field.Elem(v)
	}
	return o, nil
}

// Add merges another sketch into sk. Both must stem from the same Spec.
func (sk *Sketch) Add(other *Sketch) error {
	if len(sk.cells) != len(other.cells) {
		return fmt.Errorf("l0: merging sketches with %d and %d levels", len(sk.cells), len(other.cells))
	}
	for i := range sk.cells {
		sk.cells[i].Add(other.cells[i])
	}
	return nil
}

// ReadSketch deserializes a sketch produced under sp.
func (sp Spec) ReadSketch(r *bitio.Reader) (*Sketch, error) {
	sk := sp.NewSketch()
	for i := range sk.cells {
		cell, err := readOneSparse(r)
		if err != nil {
			return nil, fmt.Errorf("l0: level %d: %w", i, err)
		}
		sk.cells[i] = cell
	}
	return sk, nil
}

// ReadSketchTolerant deserializes a sketch while tolerating corrupted
// elements: it always consumes exactly BitLen() bits, zeroing any cell
// whose serialized elements are not canonical field values and reporting
// valid = false for such damage. The error is non-nil only when the
// message is too short to hold the full encoding.
func (sp Spec) ReadSketchTolerant(r *bitio.Reader) (sk *Sketch, valid bool, err error) {
	sk = sp.NewSketch()
	valid = true
	for i := range sk.cells {
		var cell oneSparse
		cellOK := true
		for _, dst := range []*field.Elem{&cell.valSum, &cell.idxSum, &cell.fpSum} {
			v, err := r.ReadUint(61)
			if err != nil {
				return nil, false, err
			}
			if v >= field.P {
				cellOK = false
				continue
			}
			*dst = field.Elem(v)
		}
		if !cellOK {
			cell = oneSparse{}
			valid = false
		}
		sk.cells[i] = cell
	}
	return sk, valid, nil
}
