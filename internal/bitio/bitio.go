// Package bitio provides bit-granular encoding and decoding of sketch
// messages.
//
// The distributed sketching model measures communication cost in bits, so
// every protocol in this repository serializes its messages through a
// Writer and deserializes through a Reader. Writer tracks the exact number
// of bits appended, which the simulator reports as the per-player sketch
// size.
package bitio

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrShortMessage is returned by Reader methods when a read runs past the
// end of the encoded message.
var ErrShortMessage = errors.New("bitio: read past end of message")

// Writer accumulates a bit string. The zero value is an empty writer ready
// for use.
type Writer struct {
	buf  []byte
	nbit int
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the written bits packed into bytes (final byte zero-padded).
// The returned slice aliases the writer's internal buffer.
func (w *Writer) Bytes() []byte { return w.buf[:(w.nbit+7)/8] }

// grow extends the buffer's length to at least need bytes, in one step.
// Revealed bytes are always zero: fresh allocations come zeroed, and
// re-sliced spare capacity (left dirty by Reset) is cleared explicitly, so
// the invariant "every byte at or past the bit frontier is zero" — which
// WriteBit/WriteUint rely on when OR-ing into partial bytes — holds no
// matter how the buffer got here.
func (w *Writer) grow(need int) {
	n := len(w.buf)
	if need <= n {
		return
	}
	if need <= cap(w.buf) {
		w.buf = w.buf[:need]
		clear(w.buf[n:need])
		return
	}
	newCap := 2 * cap(w.buf)
	if newCap < need {
		newCap = need
	}
	buf := make([]byte, need, newCap)
	copy(buf, w.buf)
	w.buf = buf
}

// Grow pre-extends the buffer to hold `width` more bits beyond the current
// frontier, without writing any. A producer that knows its exact message
// size calls Grow once and every subsequent Write* appends without a
// growth check — the block sketching path's zero-realloc contract.
func (w *Writer) Grow(width int) {
	if width < 0 {
		panic(fmt.Sprintf("bitio: invalid Grow width %d", width))
	}
	w.grow((w.nbit + width + 7) / 8)
}

// WriteZeros appends `width` zero bits in O(growth) time: the buffer is
// bulk-extended (grow guarantees revealed bytes are zero) and only the bit
// counter advances. Sketch serializers use it for the long all-zero cell
// runs above a sketch's touched levels, where the bits are known to be
// zero without looking at them.
func (w *Writer) WriteZeros(width int) {
	if width < 0 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	w.grow((w.nbit + width + 7) / 8)
	w.nbit += width
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	idx, off := w.nbit/8, uint(w.nbit%8)
	if idx == len(w.buf) {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[idx] |= 1 << off
	}
	w.nbit++
}

// WriteUint appends the low `width` bits of v, least significant bit first.
// Width must be in [0, 64].
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	// Grow the buffer to hold the new bits (no-op after a precise Grow).
	w.grow((w.nbit + width + 7) / 8)
	off := uint(w.nbit % 8)
	idx := w.nbit / 8
	w.nbit += width
	// Fill the partial byte, then whole bytes.
	if off != 0 {
		w.buf[idx] |= byte(v << off)
		consumed := 8 - int(off)
		if width <= consumed {
			return
		}
		v >>= uint(consumed)
		width -= consumed
		idx++
	}
	for width > 0 {
		w.buf[idx] = byte(v)
		v >>= 8
		width -= 8
		idx++
	}
}

// WriteUvarint appends v using a self-delimiting Elias-gamma-style code:
// the bit length of v+1 in unary, then the value. Costs UvarintWidth(v)
// bits.
func (w *Writer) WriteUvarint(v uint64) {
	n := bits.Len64(v + 1) // >= 1
	for i := 0; i < n-1; i++ {
		w.WriteBit(false)
	}
	w.WriteBit(true)
	w.WriteUint(v+1, n-1) // high bit implicit
}

// FlipBit inverts the bit at position pos, which must be in [0, Len()).
// Fault-injection layers use it to corrupt an already-written message
// in place without changing its length.
func (w *Writer) FlipBit(pos int) {
	if pos < 0 || pos >= w.nbit {
		panic(fmt.Sprintf("bitio: FlipBit position %d out of range [0,%d)", pos, w.nbit))
	}
	w.buf[pos/8] ^= 1 << uint(pos%8)
}

// WriteBytes appends the given bytes verbatim (8 bits per byte).
func (w *Writer) WriteBytes(p []byte) { w.appendBits(p, 8*len(p)) }

// Reader consumes a bit string produced by Writer.
type Reader struct {
	buf  []byte
	nbit int
	pos  int
}

// NewReader returns a reader over the first nbit bits of buf.
func NewReader(buf []byte, nbit int) *Reader {
	return &Reader{buf: buf, nbit: nbit}
}

// ReaderFor returns a reader over everything written to w.
func ReaderFor(w *Writer) *Reader { return NewReader(w.Bytes(), w.Len()) }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrShortMessage
	}
	idx, off := r.pos/8, uint(r.pos%8)
	r.pos++
	return r.buf[idx]&(1<<off) != 0, nil
}

// ReadUint consumes `width` bits and returns them as an unsigned integer,
// least significant bit first.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if r.Remaining() < width {
		return 0, ErrShortMessage
	}
	var v uint64
	got := 0
	off := uint(r.pos % 8)
	idx := r.pos / 8
	r.pos += width
	if off != 0 {
		v = uint64(r.buf[idx] >> off)
		got = 8 - int(off)
		idx++
	}
	for got < width {
		v |= uint64(r.buf[idx]) << uint(got)
		got += 8
		idx++
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	return v, nil
}

// ReadUvarint consumes a value written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b {
			break
		}
		zeros++
		if zeros > 64 {
			return 0, fmt.Errorf("bitio: malformed uvarint")
		}
	}
	low, err := r.ReadUint(zeros)
	if err != nil {
		return 0, err
	}
	return (1<<uint(zeros) | low) - 1, nil
}

// ReadBytes consumes n bytes written by WriteBytes.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	if r.Remaining() < 8*n {
		return nil, ErrShortMessage
	}
	out := make([]byte, n)
	r.readBytes(out)
	return out, nil
}

// View consumes the next width bits as a reader of their own: the
// returned reader reads exactly those bits, in place in r's buffer at
// whatever bit offset they start, and r moves past them. When fewer
// remain it consumes nothing and returns ErrShortMessage.
func (r *Reader) View(width int) (Reader, error) {
	if width < 0 || r.Remaining() < width {
		return Reader{}, ErrShortMessage
	}
	v := Reader{buf: r.buf, nbit: r.pos + width, pos: r.pos}
	r.pos += width
	return v, nil
}

// UvarintWidth returns the number of bits WriteUvarint spends on v,
// 2*floor(log2(v+1))+1.
func UvarintWidth(v uint64) int { return 2*bits.Len64(v+1) - 1 }

// UintWidth returns the number of bits needed to represent values in
// [0, n-1]; it is 0 when n <= 1.
func UintWidth(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}
