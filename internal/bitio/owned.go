package bitio

import "fmt"

// Ownership-transfer writers for the block sketching fast path. Sealing a
// round normally copies every message's bits into transcript-owned
// buffers — the immutability guarantee — which at n = 10⁴ re-moves ~60 MB
// of sketch bytes per AGM run. An owned writer makes the copy
// unnecessary without weakening the guarantee: the producer declares up
// front that it will not retain the writer after handing it to the
// engine, so the transcript may take the buffer itself (Detach) and the
// writer is left empty. Plain writers (which protocols may legally
// retain) and pooled writers (which are recycled) keep the copy path.

// NewOwnedWriter returns an empty writer whose buffer the transcript may
// steal at seal time. The producer must not use the writer after handing
// it to the engine. Release is a no-op for owned writers.
func NewOwnedWriter() *Writer { return &Writer{owned: true} }

// NewOwnedWriterFrom returns an owned writer holding the nbit bits already
// packed in buf (LSB-first, Writer's own layout), adopting buf instead of
// copying it. It is the decode-side counterpart of Detach: a codec that
// has copied a message into a fresh buffer seals it through the steal
// path with no second copy. buf must be exactly ⌈nbit/8⌉ bytes with zero
// padding bits, and the caller must not touch it afterwards.
func NewOwnedWriterFrom(buf []byte, nbit int) *Writer {
	if nbit < 0 || len(buf) != (nbit+7)/8 {
		panic(fmt.Sprintf("bitio: %d-byte buffer cannot hold exactly %d bits", len(buf), nbit))
	}
	if rem := nbit % 8; rem != 0 && buf[len(buf)-1]>>uint(rem) != 0 {
		panic("bitio: adopted buffer has non-zero padding bits")
	}
	return &Writer{buf: buf, nbit: nbit, owned: true}
}

// Owned reports whether the writer's buffer may be stolen at seal time.
func (w *Writer) Owned() bool { return w.owned }

// Detach surrenders the writer's buffer: it returns the written bits
// (packed into exactly ⌈nbit/8⌉ bytes) and the bit count, leaving the
// writer empty and un-owned. Only the transcript's seal path calls this;
// after Detach nothing aliases the returned buffer.
func (w *Writer) Detach() ([]byte, int) {
	buf, nbit := w.Bytes(), w.nbit
	w.buf, w.nbit, w.owned = nil, 0, false
	return buf, nbit
}
