// Package wire is the referee service's wire format: a versioned,
// length-prefixed binary encoding of the objects that cross the network
// when the paper's referee runs as a daemon (internal/server) instead of
// in-process.
//
// The model is literally a network protocol — every vertex sends one
// simultaneous message to a referee — so the service layer's invariant is
// the same one the execution engine already enforces locally: a fixed
// RunSpec produces a byte-identical transcript whether it is executed
// in-process or dispatched over HTTP. The codecs here are canonical to
// make that checkable: encoding is a pure function of the value (no maps,
// no padding freedom — the final byte of every message must have zero
// padding bits), so two transcripts are equal iff their encodings are
// byte-equal, and TranscriptDigest is a stable content address.
//
// Every encoded object is one frame:
//
//	offset 0: magic "RSKW" (4 bytes)
//	offset 4: format version (1 byte, currently 2)
//	offset 5: payload kind (1 byte: run-spec, transcript, run-stats, ...)
//	offset 6: payload length (uvarint)
//	then exactly that many payload bytes (no trailing data)
//
// Within payloads, integers are uvarints, fixed 64-bit values (seeds,
// float bit patterns) are little-endian, strings and byte strings are
// length-prefixed. Decoders never panic on corrupt input — they return
// errors, enforced by the FuzzWireDecode* targets — and they never
// allocate more than the input length can justify, so a short hostile
// frame cannot balloon memory.
//
// Transcript bits move in bulk. A sealed message is already packed
// LSB-first into ⌈bits/8⌉ bytes, the wire's own layout, so the encoder
// copies each message into the frame whole (through
// engine.Transcript.AppendMessage, clearing the final byte's padding
// bits), and the decoder copies nothing: after checking a message's
// padding it hands the transcript a capacity-clipped sub-slice of the
// frame (bitio.NewWriterFrom), so a decoded transcript adopts the
// frame it came from. Every encoder sizes its payload first and
// allocates its output once, at the exact length; RunReportHead lets a
// caller that already holds a result payload write it behind its header
// without copying it at all. reference_test.go holds a bit-at-a-time
// reference codec and checks that both emit the same bytes.
//
// Digest compatibility. Version 2 added the referee feedback lane
// (engine.Adaptive) to the transcript payload: after each round's player
// messages the payload carries the round's feedback bit-length and packed
// bits. TranscriptDigest hashes the canonical encoding, so digests are
// comparable only between builds speaking the same wire version — exactly
// the guarantee the version byte already enforces for the frames
// themselves. Within version 2, a non-adaptive protocol's rounds carry
// zero-length feedback, which the engine seals for every round
// unconditionally; a transcript with all-empty feedback is therefore
// byte-identical (and digest-identical) to the same player messages
// produced by a build that predates the protocol turning adaptive only if
// both speak version 2 — version 1 frames are rejected, never reencoded.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/engine"
)

// Version is the wire format version this build speaks. Decoders reject
// every other version outright: cross-version negotiation is a
// non-goal — the client and daemon ship from the same tree. Version 2
// extended the transcript payload with the per-round referee feedback
// lane and the run-stats payload with per-round player/feedback bit
// accounting.
const Version = 2

// magic identifies referee-service frames.
var magic = [4]byte{'R', 'S', 'K', 'W'}

// Payload kinds.
const (
	kindRunSpec     byte = 1
	kindTranscript  byte = 2
	kindRunStats    byte = 3
	kindRunReport   byte = 4
	kindBatchSpec   byte = 5
	kindBatchReport byte = 6
)

// kindName renders a payload kind for error messages.
func kindName(k byte) string {
	switch k {
	case kindRunSpec:
		return "run-spec"
	case kindTranscript:
		return "transcript"
	case kindRunStats:
		return "run-stats"
	case kindRunReport:
		return "run-report"
	case kindBatchSpec:
		return "batch-spec"
	case kindBatchReport:
		return "batch-report"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// maxStringLen bounds every decoded string (protocol names, graph kinds,
// labels, error texts); nothing legitimate comes close.
const maxStringLen = 1 << 12

// openFrame validates the header of data and returns the payload. The
// frame must carry exactly the declared payload — truncated or trailing
// bytes are errors, which keeps encodings canonical.
func openFrame(data []byte, wantKind byte) ([]byte, error) {
	if len(data) < 6 {
		return nil, fmt.Errorf("wire: frame too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("wire: bad magic %q (want %q)", data[:4], magic[:])
	}
	if v := data[4]; v != Version {
		return nil, fmt.Errorf("wire: unsupported wire version %d (this build speaks version %d); regenerate the frame with a matching build", v, Version)
	}
	if k := data[5]; k != wantKind {
		return nil, fmt.Errorf("wire: frame holds a %s, want a %s", kindName(k), kindName(wantKind))
	}
	n, used := binary.Uvarint(data[6:])
	if used <= 0 || (used > 1 && data[6+used-1] == 0) {
		return nil, fmt.Errorf("wire: malformed payload length")
	}
	payload := data[6+used:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("wire: frame declares %d payload bytes, carries %d", n, len(payload))
	}
	return payload, nil
}

// enc is an append-only payload encoder. Every encoder runs its payload
// twice: first through a sizing enc (enc{sizing: true}), which appends
// nothing and only counts bytes, then through the enc that frame or
// payload returns, whose buffer is allocated once at exactly that count.
type enc struct {
	b      []byte
	n      int // bytes counted by a sizing enc
	sizing bool
}

// frame ends a sizing pass: it allocates a frame for exactly the payload
// counted so far, writes its header, and returns the enc that appends the
// payload.
func (e *enc) frame(kind byte) enc { return frameHeader(kind, e.n, e.n) }

// frameHeader allocates room for a frame header declaring payloadLen
// payload bytes plus room further bytes, writes the header, and returns
// the enc that appends what follows it.
func frameHeader(kind byte, payloadLen, room int) enc {
	buf := make([]byte, 0, 6+uvarintLen(uint64(payloadLen))+room)
	return enc{b: appendFrameHeader(buf, kind, payloadLen)}
}

// appendFrameHeader appends the header of a kind frame declaring
// payloadLen payload bytes.
func appendFrameHeader(dst []byte, kind byte, payloadLen int) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, Version, kind)
	return binary.AppendUvarint(dst, uint64(payloadLen))
}

// payload ends a sizing pass for a bare payload, one with no frame header.
func (e *enc) payload() enc { return enc{b: make([]byte, 0, e.n)} }

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (e *enc) uvarint(v uint64) {
	if e.sizing {
		e.n += uvarintLen(v)
		return
	}
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *enc) uint(v int)    { e.uvarint(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) u64(v uint64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

func (e *enc) raw(p []byte) {
	if e.sizing {
		e.n += len(p)
		return
	}
	e.b = append(e.b, p...)
}

func (e *enc) byte(b byte) {
	if e.sizing {
		e.n++
		return
	}
	e.b = append(e.b, b)
}

func (e *enc) str(s string) {
	e.uint(len(s))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.b = append(e.b, s...)
}

func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// packed appends one message: its bit-length, then the ⌈nbit/8⌉ packed bytes
// that appendPacked appends in one copy (a transcript accessor), with the
// final byte's padding bits cleared so the encoding is canonical whatever
// sealed storage holds past the last bit.
func (e *enc) packed(nbit int, appendPacked func(dst []byte) []byte) {
	e.uint(nbit)
	if e.sizing {
		e.n += (nbit + 7) / 8
		return
	}
	e.b = appendPacked(e.b)
	if rem := nbit % 8; rem != 0 {
		e.b[len(e.b)-1] &= 1<<rem - 1
	}
}

// dec is a cursor over a payload. The first failure sticks: every later
// read returns zero values, so decode functions check err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// remaining returns the number of unread payload bytes.
func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, used := binary.Uvarint(d.b[d.off:])
	if used <= 0 {
		d.fail("malformed uvarint at offset %d", d.off)
		return 0
	}
	// A minimal varint never ends in an all-zero group; rejecting padded
	// forms keeps every value's encoding unique.
	if used > 1 && d.b[d.off+used-1] == 0 {
		d.fail("non-minimal uvarint at offset %d", d.off)
		return 0
	}
	d.off += used
	return v
}

// length decodes a count that prefixes a sequence whose elements each
// occupy at least minBytes encoded bytes; any count the remaining input
// cannot justify is rejected before allocation.
func (d *dec) length(what string, minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(d.remaining()/minBytes) {
		d.fail("%s count %d exceeds what %d remaining bytes can hold", what, v, d.remaining())
		return 0
	}
	return int(v)
}

// int decodes a uvarint that must fit a non-negative int.
func (d *dec) int(what string) int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated fixed64 at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

func (d *dec) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("non-canonical bool at offset %d", d.off-1)
		return false
	}
}

func (d *dec) str(what string) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.fail("%s length %d exceeds limit %d", what, n, maxStringLen)
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail("truncated %s at offset %d", what, d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) raw(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.remaining() {
		d.fail("truncated %s at offset %d", what, d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// done reports the sticky error, also rejecting unread trailing payload
// bytes so that every decodable payload has exactly one encoding.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing payload bytes", d.remaining())
	}
	return nil
}

// EncodeTranscript serializes a sealed transcript as one canonical frame:
// round count, then per round the player count, per player the bit-length
// plus the packed bits (LSB-first, exactly bitio.Writer's layout, final
// byte zero-padded), and finally the round's referee feedback bit-length
// plus packed bits (empty — a lone zero — for every round of a
// non-adaptive protocol). Sealed messages already use that layout, so
// each one is copied into the frame whole.
func EncodeTranscript(t *engine.Transcript) []byte {
	size := enc{sizing: true}
	appendTranscriptPayload(&size, t)
	e := size.frame(kindTranscript)
	appendTranscriptPayload(&e, t)
	return e.b
}

func appendTranscriptPayload(e *enc, t *engine.Transcript) {
	if t == nil {
		e.uint(0)
		return
	}
	e.uint(t.Rounds())
	for round := 0; round < t.Rounds(); round++ {
		players := t.Players(round)
		e.uint(players)
		for v := 0; v < players; v++ {
			e.packed(t.BitLen(round, v), func(dst []byte) []byte { return t.AppendMessage(dst, round, v) })
		}
		e.packed(t.FeedbackBitLen(round), func(dst []byte) []byte { return t.AppendFeedback(dst, round) })
	}
}

// DecodeTranscript inverts EncodeTranscript, rebuilding a sealed
// engine.Transcript that adopts data: each message is a capacity-clipped
// sub-slice of the frame, sealed as the writer that adopted it, so the
// transcript's bits are data's bytes and the caller must not modify data
// afterwards (the rule bitio.NewWriterFrom states). Corrupt input
// yields an error, never a panic; non-zero padding bits in a message's
// final byte are rejected so that decode(encode(t)) re-encodes
// byte-identically, and decoding never writes to data.
func DecodeTranscript(data []byte) (*engine.Transcript, error) {
	payload, err := openFrame(data, kindTranscript)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	t := decodeTranscriptPayload(d)
	if err := d.done(); err != nil {
		return nil, err
	}
	return t, nil
}

func decodeTranscriptPayload(d *dec) *engine.Transcript {
	t := engine.NewTranscript()
	// readMessage wraps one message of the payload, clipped to its own
	// bytes so nothing appended to it can reach the next message, in a
	// writer whose buffer sealing takes. The error labels come whole
	// rather than concatenated per call, so a message allocates only its
	// writer.
	readMessage := func(round, v int, lenWhat, bitsWhat, what string) *bitio.Writer {
		nbit := d.int(lenWhat)
		if d.err != nil {
			return nil
		}
		nb := (nbit + 7) / 8
		buf := d.raw(nb, bitsWhat)
		if d.err != nil {
			return nil
		}
		if rem := nbit % 8; rem != 0 && buf[nb-1]>>uint(rem) != 0 {
			d.fail("non-canonical padding bits in round %d %s %d", round, what, v)
			return nil
		}
		if nbit == 0 {
			return nil
		}
		return bitio.NewWriterFrom(buf[:nb:nb], nbit)
	}
	rounds := d.length("round", 1)
	for round := 0; round < rounds; round++ {
		players := d.length("player", 1)
		msgs := make([]*bitio.Writer, players)
		for v := 0; v < players; v++ {
			msgs[v] = readMessage(round, v, "message bit-length", "message bits", "message")
			if d.err != nil {
				return t
			}
		}
		fb := readMessage(round, 0, "feedback bit-length", "feedback bits", "feedback")
		if d.err != nil {
			return t
		}
		t.SealRound(msgs)
		t.SealFeedback(fb)
	}
	return t
}

// DigestLen is the length of every TranscriptDigest: hex SHA-256.
const DigestLen = 2 * sha256.Size

// TranscriptDigest returns a stable content address of a transcript: the
// hex SHA-256 of its canonical encoding. Because the encoding is
// canonical, two transcripts carry the same digest iff they are
// bit-identical — the check the local-vs-remote parity tests and the CI
// smoke sweep diff.
func TranscriptDigest(t *engine.Transcript) string {
	sum := sha256.Sum256(EncodeTranscript(t))
	return hex.EncodeToString(sum[:])
}

// frameDigest is the hex SHA-256 of the kind frame around payload,
// hashed without assembling the frame.
func frameDigest(kind byte, payload []byte) string {
	var head [6 + binary.MaxVarintLen64]byte
	h := sha256.New()
	h.Write(appendFrameHeader(head[:0], kind, len(payload)))
	h.Write(payload)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}
