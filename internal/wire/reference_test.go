package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/engine"
)

// The bit-serial transcript codec, kept as the reference the bulk codec
// must match byte for byte. It moves every message through
// bitio.Reader.ReadUint and bitio.Writer.WriteUint one byte at a time,
// which is obviously the canonical layout and far too slow to serve.

// appendFrame wraps a payload in the versioned frame header, copying it
// whole: the reference framing, and a way for tests to hand-build frames.
func appendFrame(kind byte, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+6+binary.MaxVarintLen64)
	out = append(out, magic[:]...)
	out = append(out, Version, kind)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// referenceEncodeTranscript is EncodeTranscript, one byte per ReadUint.
func referenceEncodeTranscript(t *engine.Transcript) []byte {
	var p []byte
	packBits := func(r *bitio.Reader, nbit int) {
		p = binary.AppendUvarint(p, uint64(nbit))
		for rem := nbit; rem > 0; rem -= 8 {
			b, _ := r.ReadUint(min(rem, 8))
			p = append(p, byte(b))
		}
	}
	rounds := 0
	if t != nil {
		rounds = t.Rounds()
	}
	p = binary.AppendUvarint(p, uint64(rounds))
	for round := 0; round < rounds; round++ {
		players := t.Players(round)
		p = binary.AppendUvarint(p, uint64(players))
		for v := 0; v < players; v++ {
			packBits(t.Message(round, v), t.BitLen(round, v))
		}
		packBits(t.Feedback(round), t.FeedbackBitLen(round))
	}
	return appendFrame(kindTranscript, p)
}

// referenceDecodeTranscript is DecodeTranscript, one byte per WriteUint
// into a writer grown from empty.
func referenceDecodeTranscript(data []byte) (*engine.Transcript, error) {
	payload, err := openFrame(data, kindTranscript)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	t := engine.NewTranscript()
	readMessage := func() *bitio.Writer {
		nbit := d.int("bit-length")
		nb := (nbit + 7) / 8
		buf := d.raw(nb, "bits")
		if d.err != nil {
			return nil
		}
		if rem := nbit % 8; rem != 0 && buf[nb-1]>>uint(rem) != 0 {
			d.fail("non-canonical padding bits")
			return nil
		}
		w := &bitio.Writer{}
		for i, rem := 0, nbit; rem > 0; i, rem = i+1, rem-8 {
			w.WriteUint(uint64(buf[i]), min(rem, 8))
		}
		return w
	}
	rounds := d.length("round", 1)
	for round := 0; round < rounds && d.err == nil; round++ {
		msgs := make([]*bitio.Writer, d.length("player", 1))
		for v := range msgs {
			msgs[v] = readMessage()
		}
		fb := readMessage()
		if d.err == nil {
			t.SealRound(msgs)
			t.SealFeedback(fb)
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// bigMessageBits is the smallest message length, in bits, over 64 KiB.
const bigMessageBits = 64<<10*8 + 1

// transcriptCoverage records which shapes the random transcripts reached,
// so the property test can prove it exercised every one.
type transcriptCoverage struct {
	emptyRounds, emptyMessages, bigMessages, feedback int
	bitLenMod8                                        [8]int
}

// randomTranscript is a testing/quick value: a sealed transcript of a few
// rounds whose messages mix empty, short and over-64-KiB lengths of every
// residue mod 8, with and without referee feedback.
type randomTranscript struct{ t *engine.Transcript }

// coverage is written by Generate; quick calls it from the test goroutine.
var coverage transcriptCoverage

func (randomTranscript) Generate(r *rand.Rand, _ int) reflect.Value {
	msg := func() *bitio.Writer {
		var nbit int
		switch k := r.Intn(12); {
		case k == 0:
			coverage.emptyMessages++
			return nil
		case k == 1:
			nbit = bigMessageBits + r.Intn(64)
			coverage.bigMessages++
		default:
			nbit = 1 + r.Intn(300)
		}
		coverage.bitLenMod8[nbit%8]++
		w := &bitio.Writer{}
		for rem := nbit; rem > 0; rem -= 64 {
			w.WriteUint(r.Uint64(), min(rem, 64))
		}
		return w
	}
	t := engine.NewTranscript()
	for rounds := r.Intn(4); rounds > 0; rounds-- {
		players := r.Intn(6)
		if players == 0 {
			coverage.emptyRounds++
		}
		msgs := make([]*bitio.Writer, players)
		for v := range msgs {
			msgs[v] = msg()
		}
		t.SealRound(msgs)
		if r.Intn(2) == 0 {
			if fb := msg(); fb != nil {
				coverage.feedback++
				t.SealFeedback(fb)
			}
		}
	}
	return reflect.ValueOf(randomTranscript{t})
}

// TestBulkCodecMatchesReference is the bulk codec's correctness argument:
// over random transcripts, EncodeTranscript emits exactly the reference
// codec's bytes, DecodeTranscript then EncodeTranscript returns its input,
// and the reference decoder reads the same transcript back.
func TestBulkCodecMatchesReference(t *testing.T) {
	coverage = transcriptCoverage{}
	property := func(rt randomTranscript) bool {
		got := EncodeTranscript(rt.t)
		if want := referenceEncodeTranscript(rt.t); !bytes.Equal(got, want) {
			t.Logf("bulk encoding (%d bytes) differs from the reference (%d bytes)", len(got), len(want))
			return false
		}
		decoded, err := DecodeTranscript(got)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !bytes.Equal(EncodeTranscript(decoded), got) {
			t.Log("decode then encode changed the frame")
			return false
		}
		ref, err := referenceDecodeTranscript(got)
		if err != nil {
			t.Logf("reference decode: %v", err)
			return false
		}
		return bytes.Equal(EncodeTranscript(ref), got)
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(15))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
	c := coverage
	if c.emptyRounds == 0 || c.emptyMessages == 0 || c.bigMessages == 0 || c.feedback == 0 {
		t.Fatalf("random transcripts missed a shape: %+v", c)
	}
	for rem, n := range c.bitLenMod8 {
		if n == 0 {
			t.Fatalf("no message had a bit length ≡ %d mod 8: %+v", rem, c)
		}
	}
}
