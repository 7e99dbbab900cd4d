package l0

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/field"
)

// The scalar referee surface the banked lane readers replaced: one heap
// Sketch per decoded sampler, read element by element through
// Reader.ReadUint and merged with Sketch.Add. The tests keep it as the
// reference the lane readers, AddLane and SampleLane must match.

// readOneSparse deserializes a cell.
func readOneSparse(r *bitio.Reader) (OneSparse, error) {
	var o OneSparse
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
		var cell OneSparse
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
			cell = OneSparse{}
			valid = false
		}
		sk.cells[i] = cell
	}
	return sk, valid, nil
}
