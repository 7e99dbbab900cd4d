package agm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// refereeConfigs are the sketch shapes the banked referee is checked
// under: the defaults, short stacks that leave Borůvka unfinished, a
// single rep per round, and the checksummed backup tail.
var refereeConfigs = []Config{
	{},
	{Rounds: 6, Reps: 2},
	{Rounds: 6, Reps: 1},
	{Rounds: 3, Reps: 1},
	{BackupReps: 2},
}

// message is one vertex's serialized sketch, as packed bytes and a bit
// count, so every decoder can read it through a fresh reader.
type message struct {
	buf  []byte
	nbit int
}

type sketcher interface {
	Sketch(core.VertexView, *rng.PublicCoins) (*bitio.Writer, error)
}

func sketchAll(t testing.TB, p sketcher, g *graph.Graph, coins *rng.PublicCoins) []message {
	t.Helper()
	msgs := make([]message, g.N())
	for v := range msgs {
		w, err := p.Sketch(core.VertexView{N: g.N(), ID: v, Neighbors: g.Neighbors(v)}, coins)
		if err != nil {
			t.Fatal(err)
		}
		msgs[v] = message{buf: append([]byte(nil), w.Bytes()...), nbit: w.Len()}
	}
	return msgs
}

func readers(msgs []message) []*bitio.Reader {
	rs := make([]*bitio.Reader, len(msgs))
	for v, m := range msgs {
		rs[v] = bitio.NewReader(m.buf, m.nbit)
	}
	return rs
}

// A fault plan damages a message set the way a faulty channel would:
// dropped messages, truncation, trailing bits, in-range bit flips, and
// out-of-range elements (61 one-bits written over an element).
type faultPlan func(r *rand.Rand, msgs []message)

func damage(r *rand.Rand, m message, kind int) message {
	w := bitio.NewWriterFrom(append([]byte(nil), m.buf...), m.nbit)
	switch kind {
	case 0: // drop
		return message{}
	case 1: // truncate
		return prefix(m, m.nbit-1-r.Intn(m.nbit))
	case 2: // trailing bits
		w.WriteUint(r.Uint64(), 1+r.Intn(64))
	case 3: // in-range flips
		for i := 0; i < 1+r.Intn(3); i++ {
			w.FlipBit(r.Intn(m.nbit))
		}
	case 4: // out-of-range element
		k := r.Intn(m.nbit / 61)
		for b := 61 * k; b < 61*k+61; b++ {
			if w.Bytes()[b/8]>>(b%8)&1 == 0 {
				w.FlipBit(b)
			}
		}
	}
	return message{buf: w.Bytes(), nbit: w.Len()}
}

// prefix returns the first nbit bits of m.
func prefix(m message, nbit int) message {
	var w bitio.Writer
	r := bitio.NewReader(m.buf, m.nbit)
	for rem := nbit; rem > 0; {
		k := min(rem, 64)
		v, _ := r.ReadUint(k)
		w.WriteUint(v, k)
		rem -= k
	}
	return message{buf: w.Bytes(), nbit: w.Len()}
}

var faultPlans = map[string]faultPlan{
	"clean": func(*rand.Rand, []message) {},
	"one": func(r *rand.Rand, msgs []message) {
		v := r.Intn(len(msgs))
		msgs[v] = damage(r, msgs[v], r.Intn(5))
	},
	"many": func(r *rand.Rand, msgs []message) {
		for v := range msgs {
			if r.Intn(3) == 0 && msgs[v].nbit > 0 {
				msgs[v] = damage(r, msgs[v], r.Intn(5))
			}
		}
	},
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBankedDecodeMatchesReference: on random graphs under every
// referee configuration and fault plan, the banked decoders return what
// the scalar reference returns — forest edges in order, the skeleton
// certificate, the strict decoders' error text, the resilient verdicts,
// and the strict decoders' reader positions.
func TestBankedDecodeMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		g := gen.Gnp(n, r.Float64()*0.3, rng.NewSource(uint64(seed)))
		coins := rng.NewPublicCoins(uint64(seed))
		cfg := refereeConfigs[r.Intn(len(refereeConfigs))]
		for name, plan := range faultPlans {
			forest := NewSpanningForest(cfg)
			msgs := sketchAll(t, forest, g, coins)
			plan(r, msgs)
			if !sameForestDecode(t, cfg, n, msgs, coins) {
				t.Logf("forest: seed %d n %d cfg %+v plan %s", seed, n, cfg, name)
				return false
			}
			skel := NewSkeleton(1+r.Intn(3), Config{Rounds: cfg.Rounds, Reps: cfg.Reps})
			msgs = sketchAll(t, skel, g, coins)
			plan(r, msgs)
			if !sameSkeletonDecode(t, skel, n, msgs, coins) {
				t.Logf("skeleton: seed %d n %d K %d cfg %+v plan %s", seed, n, skel.K, skel.Forest, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func sameForestDecode(t testing.TB, cfg Config, n int, msgs []message, coins *rng.PublicCoins) bool {
	p := NewSpanningForest(cfg)
	got, gerr := p.Decode(n, readers(msgs), coins)
	want, werr := refForestDecode(cfg, n, readers(msgs), coins)
	if errString(gerr) != errString(werr) || !reflect.DeepEqual(got, want) {
		t.Logf("Decode: %v %v, reference %v %v", got, gerr, want, werr)
		return false
	}
	if gerr == nil && !sameConsumption(msgs, func(rs []*bitio.Reader) { _, _ = p.Decode(n, rs, coins) },
		func(rs []*bitio.Reader) { _, _ = refForestDecode(cfg, n, rs, coins) }) {
		t.Log("Decode consumed a different number of bits")
		return false
	}
	gotR, gv, gerr := p.DecodeResilient(n, readers(msgs), coins)
	wantR, wv := refForestDecodeResilient(cfg, n, readers(msgs), coins)
	if gerr != nil || gv != wv || !reflect.DeepEqual(gotR, wantR) {
		t.Logf("DecodeResilient: %v %v %v, reference %v %v", gotR, gv, gerr, wantR, wv)
		return false
	}
	return true
}

func sameSkeletonDecode(t testing.TB, p *SkeletonProtocol, n int, msgs []message, coins *rng.PublicCoins) bool {
	got, gerr := p.Decode(n, readers(msgs), coins)
	want, werr := refSkeletonDecode(p, n, readers(msgs), coins)
	if errString(gerr) != errString(werr) || (werr == nil && !reflect.DeepEqual(got, want)) {
		t.Logf("Decode: %v %v, reference %v %v", got, gerr, want, werr)
		return false
	}
	if gerr == nil && !sameConsumption(msgs, func(rs []*bitio.Reader) { _, _ = p.Decode(n, rs, coins) },
		func(rs []*bitio.Reader) { _, _ = refSkeletonDecode(p, n, rs, coins) }) {
		t.Log("Decode consumed a different number of bits")
		return false
	}
	gotR, gv, gerr := p.DecodeResilient(n, readers(msgs), coins)
	wantR, wv := refSkeletonDecodeResilient(p, n, readers(msgs), coins)
	if gerr != nil || gv != wv || !reflect.DeepEqual(gotR, wantR) {
		t.Logf("DecodeResilient: %v %v %v, reference %v %v", gotR, gv, gerr, wantR, wv)
		return false
	}
	return true
}

// sameConsumption reports whether two decoders leave every reader at the
// same position: protocols that concatenate stacks (mst-weight) decode
// them back to back from the same readers.
func sameConsumption(msgs []message, a, b func([]*bitio.Reader)) bool {
	ra, rb := readers(msgs), readers(msgs)
	a(ra)
	b(rb)
	for v := range ra {
		if ra[v].Remaining() != rb[v].Remaining() {
			return false
		}
	}
	return true
}

// decodeFixture sketches a G(n, p) graph at average degree 8, the shape
// of perfbench's sketch-batch agm-forest spec, and returns the clean
// messages as reader values that a decode can be replayed from.
func decodeFixture(t testing.TB, n int, cfg Config) ([]bitio.Reader, *rng.PublicCoins) {
	g := gen.Gnp(n, 8/float64(n-1), rng.NewSource(21))
	coins := rng.NewPublicCoins(22)
	msgs := sketchAll(t, NewSpanningForest(cfg), g, coins)
	pristine := make([]bitio.Reader, n)
	for v, m := range msgs {
		pristine[v] = *bitio.NewReader(m.buf, m.nbit)
	}
	return pristine, coins
}

// rewind points rs at fresh copies of the pristine readers.
func rewind(rs []*bitio.Reader, pristine []bitio.Reader) {
	for v := range rs {
		if rs[v] == nil {
			rs[v] = new(bitio.Reader)
		}
		*rs[v] = pristine[v]
	}
}

// TestForestDecodeAllocs: the banked referee allocates a fixed number of
// buffers per decode — one bank for a whole round, reused across rounds
// — so its allocation count does not grow with Rounds·Reps, unlike the
// one heap sketch per (vertex, sampler) the scalar referee made.
func TestForestDecodeAllocs(t *testing.T) {
	const n = 256
	allocs := func(cfg Config) float64 {
		pristine, coins := decodeFixture(t, n, cfg)
		p := NewSpanningForest(cfg)
		rs := make([]*bitio.Reader, n)
		return testing.AllocsPerRun(3, func() {
			rewind(rs, pristine)
			if _, err := p.Decode(n, rs, coins); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(Config{})
	for _, cfg := range []Config{{Rounds: 44, Reps: 3}, {Rounds: 22, Reps: 6}, {Rounds: 44, Reps: 6}} {
		if got := allocs(cfg); got > base {
			t.Errorf("Rounds %d Reps %d: %v allocations per decode, more than the default's %v",
				cfg.Rounds, cfg.Reps, got, base)
		}
	}
	if base > n/4 {
		t.Errorf("%v allocations per decode at n = %d, want at most %d", base, n, n/4)
	}
}

// BenchmarkAGMDecode times one agm-forest decode at sketch-batch's size
// (n = 256, average degree 8, default sketch shape): the scalar
// reference and the banked referee, in the same run.
func BenchmarkAGMDecode(b *testing.B) {
	const n = 256
	pristine, coins := decodeFixture(b, n, Config{})
	p := NewSpanningForest(Config{})
	rs := make([]*bitio.Reader, n)
	for _, bc := range []struct {
		name   string
		decode func() error
	}{
		{"reference", func() error { _, err := refForestDecode(Config{}, n, rs, coins); return err }},
		{"banked", func() error { _, err := p.Decode(n, rs, coins); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rewind(rs, pristine)
				if err := bc.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzAGMForestDecode mutates one vertex's valid message — bit flips,
// truncation, trailing bits, and an element forced out of range — and
// requires the banked decoders to agree with the scalar reference on
// error versus output, verdicts included, without panicking.
func FuzzAGMForestDecode(f *testing.F) {
	const n = 8
	cfg := Config{Rounds: 4, Reps: 2, BackupReps: 1}
	g := gen.Gnp(n, 0.4, rng.NewSource(3))
	coins := rng.NewPublicCoins(4)
	clean := sketchAll(f, NewSpanningForest(cfg), g, coins)
	f.Add(uint8(0), []byte{}, uint16(0), []byte{}, uint16(0))
	f.Add(uint8(1), []byte{7, 1}, uint16(0), []byte{}, uint16(0))
	f.Add(uint8(2), []byte{}, uint16(1), []byte{}, uint16(0))
	f.Add(uint8(3), []byte{}, uint16(0), []byte{0xa5, 3}, uint16(0))
	f.Add(uint8(4), []byte{}, uint16(0), []byte{}, uint16(9))
	f.Add(uint8(5), []byte{0xff, 0xff}, uint16(700), []byte{1}, uint16(40))
	f.Fuzz(func(t *testing.T, vertex uint8, flips []byte, cut uint16, trail []byte, ones uint16) {
		msgs := append([]message(nil), clean...)
		v := int(vertex) % n
		m := msgs[v]
		w := bitio.NewWriterFrom(append([]byte(nil), m.buf...), m.nbit)
		if ones > 0 {
			k := int(ones-1) % (m.nbit / 61)
			for b := 61 * k; b < 61*k+61; b++ {
				if w.Bytes()[b/8]>>(b%8)&1 == 0 {
					w.FlipBit(b)
				}
			}
		}
		for i := 0; i+1 < len(flips); i += 2 {
			w.FlipBit((int(flips[i]) | int(flips[i+1])<<8) % m.nbit)
		}
		m = prefix(message{buf: w.Bytes(), nbit: w.Len()}, m.nbit-int(cut)%(m.nbit+1))
		tw := bitio.NewWriterFrom(m.buf, m.nbit)
		tw.WriteBytes(trail)
		msgs[v] = message{buf: tw.Bytes(), nbit: tw.Len()}
		if !sameForestDecode(t, cfg, n, msgs, coins) {
			t.Fatal("banked decode differs from the reference")
		}
	})
}
