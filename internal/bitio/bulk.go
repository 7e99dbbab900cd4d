package bitio

import "encoding/binary"

// Fixed-width bulk kernels. Sketch messages are long runs of 61-bit
// field elements, and codecs move whole byte runs; moving them one byte
// per step (ReadUint, WriteUint) costs a loop iteration and a bounds
// check per byte. These kernels move the same LSB-first bits a word at a
// time and are bit-identical to the per-value calls they replace
// (bulk_test.go checks them against those loops at every start offset
// mod 8).

// Uint61Width is the packed width of one element of GF(2^61 − 1), the
// field every ℓ₀ sketch cell lives in.
const Uint61Width = 61

const mask61 = 1<<Uint61Width - 1

// The element kernels work on a 9-byte window: a single unaligned
// 64-bit load holds an element's 61 bits when its offset within the
// first byte is at most 3; above that its top bits spill into a ninth
// byte. The ninth byte is merged unconditionally (below offset 4 its
// bits land above bit 60 and are masked off), so the loops carry no
// data-dependent branch. The last few elements of a buffer, whose window
// would run past its end, go through a zero-padded copy instead, outside
// the hot loops.

// window returns the 9 bytes at idx, or fewer bytes padded with zeros at
// the end of buf.
func window(buf []byte, idx int) (w [9]byte) {
	copy(w[:], buf[idx:])
	return w
}

func load61(b []byte, off uint) uint64 {
	return (binary.LittleEndian.Uint64(b)>>off | uint64(b[8])<<(63-off)<<1) & mask61
}

// store61 ORs v (at most 61 bits) into the window b at bit offset off.
// The target bits must be zero, as every bit at or past a Writer's
// frontier is.
func store61(b []byte, off uint, v uint64) {
	binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)|v<<off)
	b[8] |= byte(v >> (63 - off) >> 1)
}

// ReadUint61s consumes len(dst) consecutive 61-bit values into dst: the
// bulk form of calling ReadUint(61) len(dst) times. When fewer than
// 61·len(dst) bits remain it consumes nothing and returns
// ErrShortMessage.
func (r *Reader) ReadUint61s(dst []uint64) error {
	if r.Remaining() < Uint61Width*len(dst) {
		return ErrShortMessage
	}
	buf, pos, i := r.buf, r.pos, 0
	for ; i < len(dst); i++ {
		idx := pos >> 3
		if idx+9 > len(buf) {
			break
		}
		dst[i] = load61(buf[idx:idx+9:idx+9], uint(pos&7))
		pos += Uint61Width
	}
	for ; i < len(dst); i++ {
		w := window(buf, pos>>3)
		dst[i] = load61(w[:], uint(pos&7))
		pos += Uint61Width
	}
	r.pos = pos
	return nil
}

// WriteUint61s appends the low 61 bits of every value in src: the bulk
// form of calling WriteUint(v, 61) per value.
func (w *Writer) WriteUint61s(src []uint64) {
	w.grow((w.nbit + Uint61Width*len(src) + 7) / 8)
	buf, pos, i := w.buf, w.nbit, 0
	for ; i < len(src); i++ {
		idx := pos >> 3
		if idx+9 > len(buf) {
			break
		}
		store61(buf[idx:idx+9:idx+9], uint(pos&7), src[i]&mask61)
		pos += Uint61Width
	}
	for ; i < len(src); i++ {
		idx := pos >> 3
		win := window(buf, idx)
		store61(win[:], uint(pos&7), src[i]&mask61)
		copy(buf[idx:], win[:])
		pos += Uint61Width
	}
	w.nbit = pos
}

// Skip consumes width bits without decoding them. When fewer remain it
// consumes nothing and returns ErrShortMessage.
func (r *Reader) Skip(width int) error {
	if width < 0 || r.Remaining() < width {
		return ErrShortMessage
	}
	r.pos += width
	return nil
}

// appendBits appends the first nbit bits of src (LSB-first) at the
// frontier: one copy when the frontier is byte-aligned, otherwise a
// word-at-a-time shifted merge. Padding bits of src past nbit never
// reach the output.
func (w *Writer) appendBits(src []byte, nbit int) {
	if nbit == 0 {
		return
	}
	src = src[:(nbit+7)/8]
	idx, off := w.nbit>>3, uint(w.nbit&7)
	w.grow((w.nbit + nbit + 7) / 8)
	dst := w.buf[idx:]
	if off == 0 {
		copy(dst, src)
	} else {
		k := 0
		for ; k+8 <= len(src) && k+9 <= len(dst); k += 8 {
			x := binary.LittleEndian.Uint64(src[k:])
			binary.LittleEndian.PutUint64(dst[k:], binary.LittleEndian.Uint64(dst[k:])|x<<off)
			dst[k+8] = byte(x >> (64 - off))
		}
		for ; k < len(src); k++ {
			dst[k] |= src[k] << off
			if k+1 < len(dst) {
				dst[k+1] = src[k] >> (8 - off)
			}
		}
	}
	w.nbit += nbit
	if rem := w.nbit & 7; rem != 0 {
		w.buf[w.nbit>>3] &= 1<<uint(rem) - 1
	}
}

// readBytes fills out with the next 8·len(out) bits; the caller has
// checked that they remain.
func (r *Reader) readBytes(out []byte) {
	idx, off := r.pos>>3, uint(r.pos&7)
	r.pos += 8 * len(out)
	src := r.buf[idx:]
	if off == 0 {
		copy(out, src)
		return
	}
	// An unaligned run of 8·len(out) bits spans len(out)+1 source bytes.
	k := 0
	for ; k+8 <= len(out) && k+9 <= len(src); k += 8 {
		x := binary.LittleEndian.Uint64(src[k:])>>off | uint64(src[k+8])<<(64-off)
		binary.LittleEndian.PutUint64(out[k:], x)
	}
	for ; k < len(out); k++ {
		out[k] = src[k]>>off | src[k+1]<<(8-off)
	}
}
