package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// writeMixed drives a deterministic mixed write sequence against w,
// interleaving WriteUint, WriteBit, and — when zeros is set — WriteZeros
// runs, so the block-path primitives are exercised against the classic
// bit-at-a-time encoding.
func writeMixed(w *Writer, seed int64, zeros bool) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		switch r.Intn(4) {
		case 0:
			w.WriteBit(r.Intn(2) == 1)
		case 1:
			width := r.Intn(65)
			w.WriteUint(r.Uint64(), width)
		case 2:
			n := r.Intn(300)
			if zeros {
				w.WriteZeros(n)
			} else {
				for j := 0; j < n; j++ {
					w.WriteBit(false)
				}
			}
		case 3:
			w.WriteUvarint(r.Uint64() >> uint(r.Intn(64)))
		}
	}
}

// TestWriteZerosMatchesBitLoop proves WriteZeros is bit-identical to the
// equivalent WriteBit(false) loop across mixed, unaligned streams.
func TestWriteZerosMatchesBitLoop(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		fast, slow := &Writer{}, &Writer{}
		writeMixed(fast, seed, true)
		writeMixed(slow, seed, false)
		if fast.Len() != slow.Len() || !bytes.Equal(fast.Bytes(), slow.Bytes()) {
			t.Fatalf("seed %d: WriteZeros diverges from bit loop (%d vs %d bits)", seed, fast.Len(), slow.Len())
		}
	}
}

// TestGrowPreservesBits proves pre-growing (at any point in the stream)
// never changes the written bits, and that a precise Grow makes the
// subsequent writes allocation-free.
func TestGrowPreservesBits(t *testing.T) {
	plain := &Writer{}
	writeMixed(plain, 3, true)

	grown := &Writer{}
	grown.Grow(plain.Len())
	writeMixed(grown, 3, true)
	if grown.Len() != plain.Len() || !bytes.Equal(grown.Bytes(), plain.Bytes()) {
		t.Fatal("Grow changed written bits")
	}

	// Mid-stream Grow.
	mid := &Writer{}
	mid.WriteUint(0xdead, 13)
	mid.Grow(4096)
	mid.WriteUint(0xbeef, 17)
	ref := &Writer{}
	ref.WriteUint(0xdead, 13)
	ref.WriteUint(0xbeef, 17)
	if mid.Len() != ref.Len() || !bytes.Equal(mid.Bytes(), ref.Bytes()) {
		t.Fatal("mid-stream Grow changed written bits")
	}
}

// TestGrowThenWriteDoesNotAllocate pins the zero-realloc contract the
// block sketch path depends on: after one precise Grow, appending the
// declared number of bits performs no allocation.
func TestGrowThenWriteDoesNotAllocate(t *testing.T) {
	w := &Writer{}
	const words = 64
	avg := testing.AllocsPerRun(100, func() {
		w.Reset()
		w.Grow(words * 61)
		for i := 0; i < words; i++ {
			w.WriteUint(uint64(i)*0x9e3779b97f4a7c15, 61)
		}
	})
	if avg != 0 {
		t.Fatalf("Grow+WriteUint allocates %v times per run, want 0", avg)
	}
}

// TestResetReuseAfterDirtyBuffer proves that a writer whose recycled
// capacity holds stale nonzero bytes still produces clean bits: grow
// scrubs every byte it reveals.
func TestResetReuseAfterDirtyBuffer(t *testing.T) {
	w := &Writer{}
	for i := 0; i < 100; i++ {
		w.WriteUint(^uint64(0), 64) // all-ones garbage
	}
	w.Reset()
	w.WriteZeros(777)
	w.WriteUint(5, 3)
	ref := &Writer{}
	ref.WriteZeros(777)
	ref.WriteUint(5, 3)
	if w.Len() != ref.Len() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatal("dirty recycled capacity leaked into the bit stream")
	}
}

// TestOwnedDetach pins the ownership-transfer contract: Detach returns
// exactly the written bytes and bit count, and empties the writer.
func TestOwnedDetach(t *testing.T) {
	w := &Writer{}
	w.Grow(1000) // over-grown: Detach must still trim to written bytes
	w.WriteUint(0x1234, 13)
	want := append([]byte(nil), w.Bytes()...)
	buf, nbit := w.Detach()
	if nbit != 13 || !bytes.Equal(buf, want) || len(buf) != 2 {
		t.Fatalf("Detach = (%x, %d), want (%x, 13) with 2 bytes", buf, nbit, want)
	}
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Detach left the writer non-empty")
	}
	// Release is a no-op.
	v := &Writer{}
	v.WriteBit(true)
	Release(v)
	if v.Len() != 1 {
		t.Fatal("Release mutated a writer")
	}
}

// TestNewWriterFrom pins the adopting constructor: the writer reads
// back the adopted bits, extends them like any writer, detaches the very
// buffer it adopted, and rejects buffers of the wrong size or with
// non-zero padding.
func TestNewWriterFrom(t *testing.T) {
	ref := &Writer{}
	ref.WriteUint(0x2b5, 11)
	buf := append([]byte(nil), ref.Bytes()...)
	w := NewWriterFrom(buf, 11)
	if w.Len() != 11 || !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatalf("adopted writer = (%x, %d bits), want (%x, 11 bits)", w.Bytes(), w.Len(), ref.Bytes())
	}
	if v, err := ReaderFor(w).ReadUint(11); err != nil || v != 0x2b5 {
		t.Fatalf("read back %#x, %v; want 0x2b5", v, err)
	}
	got, nbit := w.Detach()
	if nbit != 11 || &got[0] != &buf[0] {
		t.Fatal("Detach did not hand back the adopted buffer")
	}

	grown := NewWriterFrom(append([]byte(nil), ref.Bytes()...), 11)
	grown.WriteUint(0x1f, 5)
	ref.WriteUint(0x1f, 5)
	if grown.Len() != ref.Len() || !bytes.Equal(grown.Bytes(), ref.Bytes()) {
		t.Fatal("writing after adoption diverges from a plain writer")
	}
	if empty := NewWriterFrom(nil, 0); empty.Len() != 0 {
		t.Fatal("empty adoption is not empty")
	}

	for name, adopt := range map[string]func(){
		"short":       func() { NewWriterFrom([]byte{1}, 9) },
		"long":        func() { NewWriterFrom([]byte{1, 0}, 8) },
		"negative":    func() { NewWriterFrom(nil, -1) },
		"bad-padding": func() { NewWriterFrom([]byte{0x80}, 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: adoption did not panic", name)
				}
			}()
			adopt()
		}()
	}
}
