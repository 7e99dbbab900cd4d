package bitio

import "fmt"

// Ownership transfer. The engine's transcript takes every message's
// buffer at seal time (Detach) instead of copying it, so a writer handed
// to the engine is empty afterwards and its producer must not keep
// slices of its bytes. NewWriterFrom is the decode side of the same
// hand-off: a codec seals a message that already sits in its input.

// NewWriterFrom returns a writer holding the nbit bits already packed in
// buf (LSB-first, Writer's own layout), adopting buf instead of copying
// it. A codec wraps a capacity-clipped sub-slice of its frame this way,
// so sealing the message copies nothing at all. buf must be exactly
// ⌈nbit/8⌉ bytes with zero padding bits, and the caller must not touch
// it afterwards.
func NewWriterFrom(buf []byte, nbit int) *Writer {
	if nbit < 0 || len(buf) != (nbit+7)/8 {
		panic(fmt.Sprintf("bitio: %d-byte buffer cannot hold exactly %d bits", len(buf), nbit))
	}
	if rem := nbit % 8; rem != 0 && buf[len(buf)-1]>>uint(rem) != 0 {
		panic("bitio: adopted buffer has non-zero padding bits")
	}
	return &Writer{buf: buf, nbit: nbit}
}

// Detach surrenders the writer's buffer: it returns the written bits
// (packed into exactly ⌈nbit/8⌉ bytes) and the bit count, leaving the
// writer empty. After Detach the writer no longer aliases the returned
// buffer.
func (w *Writer) Detach() ([]byte, int) {
	buf, nbit := w.Bytes(), w.nbit
	w.buf, w.nbit = nil, 0
	return buf, nbit
}

// Reset empties the writer, keeping its buffer capacity for reuse. The
// retained bytes need no scrubbing here: growth (grow) zeroes every byte
// it reveals, so stale capacity contents can never reach Bytes().
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Release does nothing. Writers are no longer pooled; it remains only
// because perfbench/trace.go still calls it, and goes when that
// benchmark next changes.
func Release(*Writer) {}
