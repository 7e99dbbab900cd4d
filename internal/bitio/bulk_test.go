package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The bit-serial loops the bulk kernels replaced, kept as references:
// one ReadUint/WriteUint call per 61-bit element, per byte, or per
// 64-bit chunk of an appended writer.

func refReadUint61s(r *Reader, dst []uint64) error {
	for i := range dst {
		v, err := r.ReadUint(Uint61Width)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

func refWriteUint61s(w *Writer, src []uint64) {
	for _, v := range src {
		w.WriteUint(v, Uint61Width)
	}
}

func refWriteBytes(w *Writer, p []byte) {
	for _, b := range p {
		w.WriteUint(uint64(b), 8)
	}
}

func refAppend(w, o *Writer) {
	r := ReaderFor(o)
	for rem := o.Len(); rem > 0; {
		k := min(rem, 64)
		v, _ := r.ReadUint(k)
		w.WriteUint(v, k)
		rem -= k
	}
}

func refReadBytes(r *Reader, n int) ([]byte, error) {
	if r.Remaining() < 8*n {
		return nil, ErrShortMessage
	}
	out := make([]byte, n)
	for i := range out {
		v, _ := r.ReadUint(8)
		out[i] = byte(v)
	}
	return out, nil
}

// prefixed returns two identical writers holding a random prefix whose
// length is congruent to off mod 8, so every kernel is exercised at
// every start offset within a byte.
func prefixed(rnd *rand.Rand, off int) (*Writer, *Writer) {
	bits := off + 8*rnd.Intn(4)
	a, b := &Writer{}, &Writer{}
	for i := 0; i < bits; i++ {
		bit := rnd.Intn(2) == 1
		a.WriteBit(bit)
		b.WriteBit(bit)
	}
	return a, b
}

func randElems(rnd *rand.Rand, n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = rnd.Uint64() // high bits set on purpose: both sides mask
	}
	return vs
}

func TestBulkUint61MatchesReference(t *testing.T) {
	prop := func(seed int64, count uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		for off := 0; off < 8; off++ {
			vs := randElems(rnd, int(count)%40)
			bulk, ref := prefixed(rnd, off)
			bulk.WriteUint61s(vs)
			refWriteUint61s(ref, vs)
			if bulk.Len() != ref.Len() || !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
				t.Logf("pack differs at offset %d, %d elems", off, len(vs))
				return false
			}
			rb, rr := ReaderFor(ref), ReaderFor(ref)
			_ = rb.Skip(off)
			_ = rr.Skip(off)
			// Skip the rest of the random prefix too.
			extra := ref.Len() - off - Uint61Width*len(vs)
			_ = rb.Skip(extra)
			_ = rr.Skip(extra)
			got, want := make([]uint64, len(vs)), make([]uint64, len(vs))
			if err := rb.ReadUint61s(got); err != nil {
				return false
			}
			if err := refReadUint61s(rr, want); err != nil {
				return false
			}
			for i := range got {
				if got[i] != want[i] || got[i] != vs[i]&mask61 {
					t.Logf("unpack differs at offset %d elem %d: %x vs %x", off, i, got[i], want[i])
					return false
				}
			}
			if rb.Remaining() != 0 || rr.Remaining() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBulkUint61ReadsNinthByte pins the case a single 64-bit load gets
// wrong: an element starting above bit 3 of its byte has its top bits in
// a ninth byte, which must be read.
func TestBulkUint61ReadsNinthByte(t *testing.T) {
	const all = uint64(mask61)
	for off := 0; off < 8; off++ {
		var w Writer
		w.WriteZeros(off)
		refWriteUint61s(&w, []uint64{all, all})
		r := ReaderFor(&w)
		_ = r.Skip(off)
		got := make([]uint64, 2)
		if err := r.ReadUint61s(got); err != nil {
			t.Fatal(err)
		}
		if got[0] != all || got[1] != all {
			t.Fatalf("offset %d: read %x %x, want %x", off, got[0], got[1], all)
		}
	}
}

func TestBulkUint61Short(t *testing.T) {
	var w Writer
	w.WriteUint61s([]uint64{1, 2, 3})
	for cut := 0; cut < 3*Uint61Width; cut++ {
		r := NewReader(w.Bytes(), 3*Uint61Width-1-cut)
		if err := r.ReadUint61s(make([]uint64, 3)); err != ErrShortMessage {
			t.Fatalf("cut %d: err = %v, want ErrShortMessage", cut, err)
		}
		if r.Remaining() != 3*Uint61Width-1-cut {
			t.Fatalf("cut %d: a short bulk read consumed bits", cut)
		}
	}
}

func TestByteRunsMatchReference(t *testing.T) {
	prop := func(seed int64, payload []byte, tail uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		for off := 0; off < 8; off++ {
			bulk, ref := prefixed(rnd, off)
			bulk.WriteBytes(payload)
			refWriteBytes(ref, payload)
			// An appended writer whose length is not a whole number of
			// bytes, with a deliberately dirty padding byte behind it.
			var o Writer
			o.WriteBytes(payload)
			o.WriteUint(uint64(tail), int(tail%8))
			bulk.appendBits(o.Bytes(), o.Len())
			refAppend(ref, &o)
			if bulk.Len() != ref.Len() || !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
				t.Logf("write differs at offset %d", off)
				return false
			}
			rb, rr := ReaderFor(ref), ReaderFor(ref)
			skip := ref.Len() - 2*8*len(payload) - int(tail%8)
			_ = rb.Skip(skip)
			_ = rr.Skip(skip)
			for _, n := range []int{len(payload), len(payload)} {
				got, err1 := rb.ReadBytes(n)
				want, err2 := refReadBytes(rr, n)
				if err1 != err2 || !bytes.Equal(got, want) || !bytes.Equal(got, payload) {
					t.Logf("read differs at offset %d", off)
					return false
				}
			}
			if _, err := rb.ReadBytes(1); err != ErrShortMessage {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendDropsSourcePadding(t *testing.T) {
	o := NewWriterFrom([]byte{0x05}, 3)
	o.buf[0] = 0xfd // padding bits set behind the writer's back
	for off := 0; off < 8; off++ {
		var bulk, ref Writer
		bulk.WriteZeros(off)
		ref.WriteZeros(off)
		bulk.appendBits(o.Bytes(), o.Len())
		refAppend(&ref, o)
		// Later writes OR into the bytes past the frontier, so any
		// leaked padding bit would surface here.
		bulk.WriteUint(0, 16)
		ref.WriteUint(0, 16)
		if !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
			t.Fatalf("offset %d: %x, want %x", off, bulk.Bytes(), ref.Bytes())
		}
	}
}

// TestViewReadsInPlace: a view over the next width bits reads exactly
// those bits, at every start offset mod 8 and whether or not the bits
// after it are set, stops at its own end, and moves its parent past
// them; a view wider than what remains consumes nothing.
func TestViewReadsInPlace(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for off := 0; off < 8; off++ {
		for _, width := range []int{0, 1, 7, 8, 61, 64, 200} {
			var w Writer
			w.WriteUint(rnd.Uint64(), off)
			vals := randElems(rnd, width/61+1)
			for i, v := range vals {
				w.WriteUint(v, min(61, width-61*i))
			}
			w.WriteUint(^uint64(0), 13) // a set trailer the view must not see
			r := ReaderFor(&w)
			_ = r.Skip(off)
			v, err := r.View(width)
			if err != nil || v.Remaining() != width || r.Remaining() != 13 {
				t.Fatalf("off %d width %d: View err %v, view %d bits, parent %d left", off, width, err, v.Remaining(), r.Remaining())
			}
			for i, want := range vals {
				k := min(61, width-61*i)
				got, err := v.ReadUint(k)
				if want &= 1<<k - 1; err != nil || got != want {
					t.Fatalf("off %d width %d: element %d = %#x, %v; want %#x", off, width, i, got, err, want)
				}
			}
			if _, err := v.ReadBit(); err != ErrShortMessage {
				t.Fatalf("off %d width %d: read past the view's end: %v", off, width, err)
			}
			if got, _ := r.ReadUint(13); got != 1<<13-1 {
				t.Fatalf("off %d width %d: parent resumed at %#x", off, width, got)
			}
			if _, err := r.View(1); err != ErrShortMessage || r.Remaining() != 0 {
				t.Fatalf("off %d width %d: short View err %v, %d left", off, width, err, r.Remaining())
			}
		}
	}
}

// BenchmarkBitioUnpack61 measures the bulk 61-bit unpack over one
// agm-forest vertex message at n = 256 (66 samplers × 19 levels × 3
// elements), starting at an odd bit offset.
func BenchmarkBitioUnpack61(b *testing.B) {
	const elems = 66 * 19 * 3
	rnd := rand.New(rand.NewSource(1))
	var w Writer
	w.WriteBit(true)
	w.WriteUint61s(randElems(rnd, elems))
	dst := make([]uint64, elems)
	b.SetBytes(int64(w.Len() / 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ReaderFor(&w)
		_ = r.Skip(1)
		if err := r.ReadUint61s(dst); err != nil {
			b.Fatal(err)
		}
	}
}
