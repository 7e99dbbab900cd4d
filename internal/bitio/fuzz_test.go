package bitio

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzUvarintRoundTrip checks write/read symmetry for arbitrary values.
func FuzzUvarintRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(127))
	f.Add(uint64(1) << 40)
	f.Fuzz(func(t *testing.T, v uint64) {
		if v == ^uint64(0) {
			v-- // encoder stores v+1
		}
		var w Writer
		w.WriteUvarint(v)
		got, err := ReaderFor(&w).ReadUvarint()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

// FuzzReaderNeverPanics feeds arbitrary byte soup to every reader method,
// the bulk ones (ReadBytes, ReadUint61s, Skip) and View included; readers must
// fail gracefully, never panic or over-read, and a bulk 61-bit read must
// agree with the per-element reads it replaces.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0x00, 0xa5}, uint8(20))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint8(37))
	f.Fuzz(func(t *testing.T, data []byte, ops uint8) {
		r := NewReader(data, len(data)*8)
		for i := uint8(0); i < ops%64; i++ {
			switch i % 7 {
			case 0:
				_, _ = r.ReadBit()
			case 1:
				_, _ = r.ReadUint(int(i) % 65)
			case 2:
				_, _ = r.ReadUvarint()
			case 3:
				_, _ = r.ReadBytes(int(i) % 11)
			case 4:
				before := *r
				got := make([]uint64, int(i)%5)
				err := r.ReadUint61s(got)
				want := make([]uint64, len(got))
				werr := refReadUint61s(&before, want)
				if (err == nil) != (werr == nil) || (err == nil && !slices.Equal(got, want)) {
					t.Fatalf("ReadUint61s = %x, %v; per-element reads %x, %v", got, err, want, werr)
				}
			case 5:
				_ = r.Skip(int(i) % 70)
			case 6:
				left := r.Remaining()
				if v, err := r.View(int(i) % 70); err == nil {
					if v.Remaining() != int(i)%70 || r.Remaining() != left-v.Remaining() {
						t.Fatalf("View(%d) over %d bits: view %d, parent %d left", int(i)%70, left, v.Remaining(), r.Remaining())
					}
					_, _ = v.ReadUvarint()
				} else if r.Remaining() != left {
					t.Fatal("a failed View consumed bits")
				}
			}
			if r.Remaining() < 0 {
				t.Fatal("reader over-consumed")
			}
		}
	})
}

// FuzzMixedStream writes a deterministic interpretation of the fuzz input
// and requires exact read-back.
func FuzzMixedStream(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Writer
		for _, b := range data {
			width := int(b%64) + 1
			w.WriteUint(uint64(b), width)
			w.WriteBit(b&1 == 1)
		}
		w.WriteBytes(data)
		r := ReaderFor(&w)
		for _, b := range data {
			width := int(b%64) + 1
			v, err := r.ReadUint(width)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(b)
			if width < 64 {
				want &= (1 << uint(width)) - 1
			}
			if v != want {
				t.Fatalf("uint mismatch: %d != %d (width %d)", v, want, width)
			}
			bit, err := r.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			if bit != (b&1 == 1) {
				t.Fatal("bit mismatch")
			}
		}
		got, err := r.ReadBytes(len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("bytes mismatch")
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bits left over", r.Remaining())
		}
	})
}
