package wire

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/dynstream"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/rng"
)

// FuzzWireDecodeRunSpec asserts the RunSpec decoder never panics on
// arbitrary input — corrupt frames must come back as errors — and that
// every successfully decoded spec re-encodes canonically.
func FuzzWireDecodeRunSpec(f *testing.F) {
	for _, spec := range SmokeSpecs(4) {
		f.Add(EncodeRunSpec(spec))
	}
	f.Add([]byte{})
	f.Add([]byte("RSKW"))
	f.Add(appendFrame(kindRunSpec, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeRunSpec(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeRunSpec(spec), data) {
			t.Fatalf("accepted non-canonical run-spec encoding: %x", data)
		}
	})
}

// fuzzSeedReports executes the smoke specs that seed the transcript and
// report fuzzers: the first two specs plus a few registry-migrated
// protocols whose messages have different shapes (palette lists, float
// rescaling counts, two speaking players); the heavyweight transcripts
// (mst-weight, agm-cut-sparsifier) are left out to keep the fuzz
// iteration fast. mm-tworound and fb-corrupt-mis-tworound carry
// non-empty referee feedback, seeding the decoder's feedback lane (wire
// version 2).
func fuzzSeedReports(f *testing.F) []*RunReport {
	seeds := SmokeSpecs(2)[:2:2]
	for _, spec := range SmokeSpecs(2) {
		switch spec.Label {
		case "palette-sparsification", "triangle-count", "equality-public-coin",
			"mm-tworound", "fb-corrupt-mis-tworound":
			seeds = append(seeds, spec)
		}
	}
	reports := make([]*RunReport, len(seeds))
	for i, spec := range seeds {
		report, err := ExecuteSpec(context.Background(), spec)
		if err != nil {
			f.Fatal(err)
		}
		reports[i] = report
	}
	return reports
}

// FuzzWireDecodeTranscript asserts the transcript decoder never panics on
// arbitrary input, that accepted frames are canonical — the rebuilt
// transcript re-encodes to exactly the input bytes — and that decoding,
// which adopts the input, never writes to it.
func FuzzWireDecodeTranscript(f *testing.F) {
	for _, report := range fuzzSeedReports(f) {
		f.Add(EncodeTranscript(report.Transcript))
	}
	f.Add(EncodeTranscript(nil))
	f.Add(appendFrame(kindTranscript, []byte{1, 1, 3, 0xff}))
	// One round, one empty player message, then a feedback field declaring
	// 3 bits with a non-canonical padding byte: exercises the feedback
	// decoder's rejection paths directly.
	f.Add(appendFrame(kindTranscript, []byte{1, 1, 0, 3, 0xff}))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		tr, err := DecodeTranscript(data)
		if !bytes.Equal(data, orig) {
			t.Fatalf("decoding modified its input: %x became %x", orig, data)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeTranscript(tr), data) {
			t.Fatalf("accepted non-canonical transcript encoding: %x", data)
		}
	})
}

// FuzzWireDecodeRunReport asserts the run-report decoder — what a client
// runs on every /v1/run response — never panics on arbitrary input, that
// accepted frames re-encode to exactly the input bytes, and that
// decoding, which adopts the input, never writes to it.
func FuzzWireDecodeRunReport(f *testing.F) {
	for _, report := range fuzzSeedReports(f) {
		f.Add(EncodeRunReport(report))
	}
	f.Add([]byte{})
	f.Add([]byte("RSKW"))
	f.Add(appendFrame(kindRunReport, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		r, err := DecodeRunReport(data)
		if !bytes.Equal(data, orig) {
			t.Fatalf("decoding modified its input: %x became %x", orig, data)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeRunReport(r), data) {
			t.Fatalf("accepted non-canonical run-report encoding: %x", data)
		}
	})
}

// FuzzWireDecodeRunStats asserts the run-stats decoder never panics on
// arbitrary input and that accepted frames are canonical, covering the
// version-2 additions (per-round player/feedback bit accounting and the
// feedback fault counters).
func FuzzWireDecodeRunStats(f *testing.F) {
	for _, spec := range []string{"mm-tworound", "agm-forest", "fb-corrupt-mis-tworound"} {
		for _, s := range SmokeSpecs(2) {
			if s.Label != spec {
				continue
			}
			report, err := ExecuteSpec(context.Background(), s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(EncodeRunStats(&report.Stats))
		}
	}
	f.Add(EncodeRunStats(testStats()))
	f.Add(EncodeRunStats(&engine.RunStats{}))
	f.Add([]byte{})
	f.Add(appendFrame(kindRunStats, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeRunStats(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeRunStats(s), data) {
			t.Fatalf("accepted non-canonical run-stats encoding: %x", data)
		}
	})
}

// FuzzAdaptiveFeedback: a multi-round protocol's later-round players
// decode whatever the referee's feedback lane holds, once per engine
// shard, so the lane's bits are hostile input to that decode. For each
// of mm-tworound, mis-tworound and semistream-matching it seals round 0
// of a small graph, seals the fuzzed bits (data, less trim%8 bits from
// the end) as the feedback after it, and requires BroadcastBlock over
// the whole shard to write, view for view, the bits per-view Broadcast
// writes in round 1 — with no panic on any input.
func FuzzAdaptiveFeedback(f *testing.F) {
	g, err := BuildGraph(GraphSpec{Kind: "gnp", N: 24, P: 0.3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	views := core.Views(g)
	coins := rng.NewPublicCoins(7)
	type adaptive interface {
		engine.BlockBroadcaster
		engine.Adaptive
	}
	type adaptiveCase struct {
		name   string
		p      adaptive
		round0 *engine.Transcript // round 0 sealed; each input seals a copy
	}
	var cases []adaptiveCase
	for _, name := range []string{"mm-tworound", "mis-tworound", "semistream-matching"} {
		build, err := lookupProtocol(name)
		if err != nil {
			f.Fatal(err)
		}
		p, ok := build(g).(adaptive)
		if !ok {
			f.Fatalf("%s: no block form or no feedback", name)
		}
		round0 := make([]*bitio.Writer, len(views))
		if _, err := p.BroadcastBlock(0, views, engine.NewTranscript(), coins, round0); err != nil {
			f.Fatal(err)
		}
		tr := engine.NewTranscript()
		tr.SealRound(round0)
		cases = append(cases, adaptiveCase{name, p, tr})
		// Seed with the referee's own feedback, which every player
		// decodes cleanly.
		fb, err := p.Feedback(0, tr, coins)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(fb.Bytes()), uint8(-fb.Len()&7))
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(3))
	f.Add([]byte{0x05, 0x00}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, trim uint8) {
		nbit := max(0, 8*len(data)-int(trim%8))
		for _, c := range cases {
			fb := &bitio.Writer{}
			fb.WriteBytes(data[:nbit/8])
			if rem := nbit % 8; rem != 0 {
				fb.WriteUint(uint64(data[nbit/8]), rem)
			}
			// Sealing takes the writers' buffers, so every input
			// seals its own copy of round 0.
			round0 := make([]*bitio.Writer, len(views))
			for v := range round0 {
				round0[v] = bitio.NewWriterFrom(c.round0.AppendMessage(nil, 0, v), c.round0.BitLen(0, v))
			}
			tr := engine.NewTranscript()
			tr.SealRound(round0)
			tr.SealFeedback(fb)
			block := make([]*bitio.Writer, len(views))
			if _, err := c.p.BroadcastBlock(1, views, tr, coins, block); err != nil {
				t.Fatalf("%s: BroadcastBlock: %v", c.name, err)
			}
			for i, view := range views {
				one, err := c.p.Broadcast(1, view, tr, coins)
				if err != nil {
					t.Fatalf("%s: Broadcast(%d): %v", c.name, view.ID, err)
				}
				if one.Len() != block[i].Len() || !bytes.Equal(one.Bytes(), block[i].Bytes()) {
					t.Fatalf("%s: player %d wrote %d bits in the block, %d alone", c.name, view.ID, block[i].Len(), one.Len())
				}
			}
		}
	})
}

// FuzzAdaptiveDecode: each adaptive protocol reads every message through
// one tolerant reader, so Decode must return DecodeResilient's output on
// any transcript, however damaged. For each of mm-tworound, mis-tworound
// and semistream-matching it seals a clean run of a small graph, flips
// or truncates the player messages and feedback slots the input names,
// in any round, and requires both decoders to return the same output
// with no error and no panic.
//
// The input is read in 4-byte chunks. The first byte picks the lane
// (bit 0: player message or feedback slot), the damage (bit 1: flip one
// bit or truncate) and the round (the other bits); the second picks the
// player; the last two pick the bit to flip or the length to cut to.
func FuzzAdaptiveDecode(f *testing.F) {
	g, err := BuildGraph(GraphSpec{Kind: "gnp", N: 24, P: 0.3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	coins := rng.NewPublicCoins(7)
	cases := []adaptiveDecodeCase{
		sealAdaptive[[]graph.Edge](f, "mm-tworound", matchproto.NewTwoRound(), g, coins),
		sealAdaptive[[]int](f, "mis-tworound", misproto.NewTwoRound(), g, coins),
		sealAdaptive[[]graph.Edge](f, "semistream-matching", dynstream.NewSemiStream(dynstream.DefaultEps), g, coins),
	}
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 5})                   // flip a bit of a round-0 message
	f.Add([]byte{2, 3, 0, 0})                   // cut a round-0 message to nothing
	f.Add([]byte{1, 0, 0, 9, 6, 11, 0, 4})      // flip a feedback bit, cut a round-1 message
	f.Add([]byte{3, 0, 0, 3, 0xff, 0xff, 0, 2}) // cut round 0's feedback, then a later round's
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range cases {
			if err := c.check(damaged(c.clean, data)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	})
}

// adaptiveDecodeCase is one protocol's sealed clean run plus the check
// FuzzAdaptiveDecode makes on every damaged copy of it.
type adaptiveDecodeCase struct {
	name  string
	clean *engine.Transcript
	check func(*engine.Transcript) error
}

func sealAdaptive[O any](f *testing.F, name string, p engine.ResilientProtocol[O], g *graph.Graph, coins *rng.PublicCoins) adaptiveDecodeCase {
	_, clean, err := engine.RunWithTranscript(context.Background(), &engine.Engine{Workers: 1}, p, g, coins)
	if err != nil {
		f.Fatalf("%s: %v", name, err)
	}
	n := g.N()
	check := func(tr *engine.Transcript) error {
		got, err := p.Decode(n, tr, coins)
		if err != nil {
			return fmt.Errorf("Decode: %w", err)
		}
		want, _, err := p.DecodeResilient(n, tr, coins)
		if err != nil {
			return fmt.Errorf("DecodeResilient: %w", err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Decode returned %v, DecodeResilient %v", got, want)
		}
		return nil
	}
	return adaptiveDecodeCase{name: name, clean: clean, check: check}
}

// damaged copies a sealed transcript, flipping or truncating the lanes
// data names (see FuzzAdaptiveDecode for the layout).
func damaged(clean *engine.Transcript, data []byte) *engine.Transcript {
	type lane struct {
		buf  []byte
		nbit int
	}
	rounds := clean.Rounds()
	msgs := make([][]lane, rounds)
	feedback := make([]lane, rounds)
	for r := range msgs {
		msgs[r] = make([]lane, clean.Players(r))
		for v := range msgs[r] {
			msgs[r][v] = lane{clean.AppendMessage(nil, r, v), clean.BitLen(r, v)}
		}
		feedback[r] = lane{clean.AppendFeedback(nil, r), clean.FeedbackBitLen(r)}
	}
	for ; len(data) >= 4; data = data[4:] {
		r := int(data[0]>>2) % rounds
		l := &feedback[r]
		if data[0]&1 == 0 {
			l = &msgs[r][int(data[1])%len(msgs[r])]
		}
		pos := int(data[2])<<8 | int(data[3])
		if data[0]&2 == 0 {
			if l.nbit > 0 {
				pos %= l.nbit
				l.buf[pos/8] ^= 1 << (pos % 8)
			}
			continue
		}
		l.nbit = pos % (l.nbit + 1)
		l.buf = l.buf[:(l.nbit+7)/8]
		if rem := l.nbit % 8; rem != 0 {
			l.buf[len(l.buf)-1] &= 1<<rem - 1
		}
	}
	tr := engine.NewTranscript()
	for r := range msgs {
		round := make([]*bitio.Writer, len(msgs[r]))
		for v, m := range msgs[r] {
			round[v] = bitio.NewWriterFrom(m.buf, m.nbit)
		}
		tr.SealRound(round)
		tr.SealFeedback(bitio.NewWriterFrom(feedback[r].buf, feedback[r].nbit))
	}
	return tr
}
