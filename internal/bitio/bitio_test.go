package bitio

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	var w Writer
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if got, want := w.Len(), len(pattern); got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	r := ReaderFor(&w)
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit #%d: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %v, want %v", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrShortMessage {
		t.Errorf("read past end: err = %v, want ErrShortMessage", err)
	}
}

func TestWriteReadUint(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
	}{
		{0, 0},
		{0, 1},
		{1, 1},
		{5, 3},
		{255, 8},
		{1 << 30, 31},
		{math.MaxUint64, 64},
		{0xdeadbeefcafe, 48},
	}
	var w Writer
	for _, c := range cases {
		w.WriteUint(c.v, c.width)
	}
	r := ReaderFor(&w)
	for _, c := range cases {
		got, err := r.ReadUint(c.width)
		if err != nil {
			t.Fatalf("ReadUint(%d): %v", c.width, err)
		}
		if got != c.v {
			t.Errorf("ReadUint(%d) = %d, want %d", c.width, got, c.v)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining() = %d, want 0", r.Remaining())
	}
}

func TestUintWidthMasksValue(t *testing.T) {
	var w Writer
	w.WriteUint(0xff, 4) // only low 4 bits should be kept
	r := ReaderFor(&w)
	got, err := r.ReadUint(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xf {
		t.Errorf("got %#x, want 0xf", got)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 7, 8, 127, 128, 1 << 20, math.MaxUint64 - 1}
	var w Writer
	for _, v := range values {
		w.WriteUvarint(v)
	}
	r := ReaderFor(&w)
	for _, want := range values {
		got, err := r.ReadUvarint()
		if err != nil {
			t.Fatalf("ReadUvarint: %v", err)
		}
		if got != want {
			t.Errorf("uvarint round trip = %d, want %d", got, want)
		}
	}
}

func TestUvarintRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		if v == math.MaxUint64 {
			v-- // WriteUvarint stores v+1 internally
		}
		var w Writer
		w.WriteUvarint(v)
		got, err := ReaderFor(&w).ReadUvarint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintCostIsLogarithmic(t *testing.T) {
	for _, v := range []uint64{0, 1, 100, 1 << 40} {
		var w Writer
		w.WriteUvarint(v)
		bound := 2*64 + 1
		if v+1 > 0 {
			bound = 2*bitsLen(v+1) - 1
		}
		if w.Len() != bound {
			t.Errorf("uvarint(%d) cost %d bits, want %d", v, w.Len(), bound)
		}
	}
}

func bitsLen(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

func TestWriteReadBytes(t *testing.T) {
	var w Writer
	w.WriteBit(true) // misalign on purpose
	payload := []byte{0x00, 0xff, 0x5a, 0xa5}
	w.WriteBytes(payload)
	r := ReaderFor(&w)
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("ReadBytes = %x, want %x", got, payload)
	}
}

func TestReadErrors(t *testing.T) {
	var w Writer
	w.WriteUint(3, 2)
	r := ReaderFor(&w)
	if _, err := r.ReadUint(3); err != ErrShortMessage {
		t.Errorf("short ReadUint err = %v, want ErrShortMessage", err)
	}
	if _, err := r.ReadUint(65); err == nil {
		t.Error("ReadUint(65) succeeded, want error")
	}
	if _, err := r.ReadBytes(1); err != ErrShortMessage {
		t.Errorf("short ReadBytes err = %v, want ErrShortMessage", err)
	}
	empty := NewReader(nil, 0)
	if _, err := empty.ReadUvarint(); err != ErrShortMessage {
		t.Errorf("empty ReadUvarint err = %v, want ErrShortMessage", err)
	}
}

func TestUintWidth(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := UintWidth(c.n); got != c.want {
			t.Errorf("UintWidth(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMixedStreamRoundTripQuick(t *testing.T) {
	f := func(a uint64, b byte, c bool, widthSeed uint8) bool {
		width := int(widthSeed%64) + 1
		a &= (1 << uint(width)) - 1
		var w Writer
		w.WriteUint(a, width)
		w.WriteBit(c)
		w.WriteBytes([]byte{b})
		w.WriteUvarint(a)
		r := ReaderFor(&w)
		ga, err1 := r.ReadUint(width)
		gc, err2 := r.ReadBit()
		gb, err3 := r.ReadBytes(1)
		gv, err4 := r.ReadUvarint()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return ga == a && gc == c && gb[0] == b && gv == a && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendConcatenatesExactBits(t *testing.T) {
	// Property: for arbitrary bit strings a, b the appended writer holds
	// exactly the bits of a followed by the bits of b, with no padding.
	f := func(abits, bbits []bool) bool {
		var a, b Writer
		for _, bit := range abits {
			a.WriteBit(bit)
		}
		for _, bit := range bbits {
			b.WriteBit(bit)
		}
		var w Writer
		w.appendBits(a.Bytes(), a.Len())
		w.appendBits(b.Bytes(), b.Len())
		if w.Len() != len(abits)+len(bbits) {
			return false
		}
		r := ReaderFor(&w)
		for _, want := range append(append([]bool(nil), abits...), bbits...) {
			got, err := r.ReadBit()
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendUnalignedOffsets(t *testing.T) {
	// Cross every source length against every destination offset around
	// the 64-bit chunk boundary appendBits reads in.
	for dstOff := 0; dstOff < 9; dstOff++ {
		for srcLen := 0; srcLen < 140; srcLen++ {
			var src Writer
			for i := 0; i < srcLen; i++ {
				src.WriteBit(i%3 == 0)
			}
			var w Writer
			for i := 0; i < dstOff; i++ {
				w.WriteBit(true)
			}
			w.appendBits(src.Bytes(), src.Len())
			if w.Len() != dstOff+srcLen {
				t.Fatalf("off=%d len=%d: Len()=%d", dstOff, srcLen, w.Len())
			}
			r := ReaderFor(&w)
			for i := 0; i < dstOff; i++ {
				if got, _ := r.ReadBit(); !got {
					t.Fatalf("off=%d len=%d: prefix bit %d clobbered", dstOff, srcLen, i)
				}
			}
			for i := 0; i < srcLen; i++ {
				got, err := r.ReadBit()
				if err != nil || got != (i%3 == 0) {
					t.Fatalf("off=%d len=%d: bit %d = %v (err %v)", dstOff, srcLen, i, got, err)
				}
			}
		}
	}
}
