package l0

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/rng"
)

// laneFixture serializes a random sketch behind a random-length prefix,
// so the lane readers run at every start offset mod 8, then damages it
// according to kind: 0 leaves it intact, 1 truncates it, 2 overwrites
// one element with 61 one-bits (out of range), 3 does both.
func laneFixture(r *rand.Rand, sp Spec, kind int) (sk *Sketch, buf []byte, nbit, prefix int) {
	sk = sp.NewSketch()
	for i := r.Intn(12); i > 0; i-- {
		sp.Update(sk, r.Uint64()%sp.Universe(), int64(1-2*r.Intn(2)))
	}
	var w bitio.Writer
	prefix = r.Intn(24)
	w.WriteZeros(prefix)
	sk.Write(&w)
	buf, nbit = w.Bytes(), w.Len()
	if kind&2 != 0 {
		k := r.Intn(3 * sp.Levels())
		for b := prefix + 61*k; b < prefix+61*k+61; b++ {
			buf[b/8] |= 1 << (b % 8)
		}
	}
	if kind&1 != 0 {
		nbit -= 1 + r.Intn(sk.BitLen())
	}
	return sk, buf, nbit, prefix
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestReadLaneMatchesReadSketch: the strict lane reader accepts exactly
// what ReadSketch accepts, with the same cells and the same error text,
// and consumes the same bits on success.
func TestReadLaneMatchesReadSketch(t *testing.T) {
	sp := NewSpec(4096, rng.NewPublicCoins(3))
	b := NewBank()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, buf, nbit, prefix := laneFixture(r, sp, r.Intn(4))
		b.Reset(sp.Levels(), 3)
		lane := r.Intn(3)
		rl, rs := bitio.NewReader(buf, nbit), bitio.NewReader(buf, nbit)
		_ = rl.Skip(prefix)
		_ = rs.Skip(prefix)
		err := sp.ReadLane(b, lane, rl)
		want, werr := sp.ReadSketch(rs)
		if errText(err) != errText(werr) {
			t.Logf("ReadLane: %v, ReadSketch: %v", err, werr)
			return false
		}
		if err != nil {
			return true
		}
		var wl, ws bitio.Writer
		b.WriteLane(&wl, lane)
		want.Write(&ws)
		return bytes.Equal(wl.Bytes(), ws.Bytes()) && rl.Remaining() == rs.Remaining() &&
			b.LaneChecksum(lane) == want.Checksum()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestReadLaneTolerantMatchesReference: the tolerant lane reader zeroes
// the same damaged cells ReadSketchTolerant zeroes and reports the same
// validity, or rejects the same short messages.
func TestReadLaneTolerantMatchesReference(t *testing.T) {
	sp := NewSpec(4096, rng.NewPublicCoins(5))
	b := NewBank()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, buf, nbit, prefix := laneFixture(r, sp, r.Intn(4))
		b.Reset(sp.Levels(), 1)
		rl, rs := bitio.NewReader(buf, nbit), bitio.NewReader(buf, nbit)
		_ = rl.Skip(prefix)
		_ = rs.Skip(prefix)
		valid, err := sp.ReadLaneTolerant(b, 0, rl)
		want, wvalid, werr := sp.ReadSketchTolerant(rs)
		if (err == nil) != (werr == nil) {
			return false
		}
		if err != nil {
			return true
		}
		var wl, ws bitio.Writer
		b.WriteLane(&wl, 0)
		want.Write(&ws)
		return valid == wvalid && bytes.Equal(wl.Bytes(), ws.Bytes()) &&
			rl.Remaining() == rs.Remaining() && b.LaneChecksum(0) == want.Checksum()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSampleLaneMatchesSample: recovery from a lane — read from bits,
// merged with AddLane — equals Sample/IsZero on the equivalent Sketch
// merged with Sketch.Add.
func TestSampleLaneMatchesSample(t *testing.T) {
	sp := NewSpec(4096, rng.NewPublicCoins(9))
	b := NewBank()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b.Reset(sp.Levels(), 2)
		var merged *Sketch
		for lane := 0; lane < 2; lane++ {
			sk, buf, nbit, prefix := laneFixture(r, sp, 0)
			rd := bitio.NewReader(buf, nbit)
			_ = rd.Skip(prefix)
			if err := sp.ReadLane(b, lane, rd); err != nil {
				return false
			}
			if merged == nil {
				merged = sk
			} else if err := merged.Add(sk); err != nil {
				return false
			}
		}
		b.AddLane(0, 1)
		idx, v, ok := sp.SampleLane(b, 0)
		widx, wv, wok := sp.Sample(merged)
		return idx == widx && v == wv && ok == wok && b.LaneIsZero(0) == merged.IsZero()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestReadLaneFailureKeepsResetInvariant: a read that fails midway must
// not leave dirty cells that the next Reset would miss.
func TestReadLaneFailureKeepsResetInvariant(t *testing.T) {
	sp := NewSpec(4096, rng.NewPublicCoins(11))
	r := rand.New(rand.NewSource(1))
	b := NewBank()
	b.Reset(sp.Levels(), 1)
	for {
		_, buf, nbit, prefix := laneFixture(r, sp, 2)
		rd := bitio.NewReader(buf, nbit)
		_ = rd.Skip(prefix)
		if err := sp.ReadLane(b, 0, rd); err != nil {
			break
		}
	}
	b.Reset(sp.Levels(), 1)
	for l := 0; l < sp.Levels(); l++ {
		if b.val[l]|b.idx[l]|b.fp[l] != 0 {
			t.Fatalf("Reset after a failed read left level %d nonzero", l)
		}
	}
}
