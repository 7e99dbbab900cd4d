package wire

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
)

// testStats builds a RunStats with every field populated.
func testStats() *engine.RunStats {
	return &engine.RunStats{
		Protocol:        "mm-tworound",
		N:               50,
		Rounds:          2,
		CompletedRounds: 2,
		Workers:         8,
		ShardSize:       3,
		Shards:          17,
		Broadcasts:      100,
		EmptyMessages:   4,
		MaxMessageBits:  1234,
		RoundMaxBits:    []int{1234, 900},
		RoundTotalBits:  []int64{40000, 31000},
		RoundBits: []engine.RoundStats{
			{PlayerBits: 40000, PlayerMaxBits: 1234, FeedbackBits: 297},
			{PlayerBits: 31000, PlayerMaxBits: 900, FeedbackBits: 0},
		},
		TotalBits:     71000,
		FeedbackBits:  297,
		Hist:          []engine.HistBucket{{Lo: 0, Hi: 1, Count: 4}, {Lo: 512, Hi: 1024, Count: 96}},
		RoundWall:     []time.Duration{time.Millisecond, 2 * time.Millisecond},
		ShardWall:     engine.TimerStats{Count: 34, Total: 3 * time.Millisecond, Max: time.Millisecond},
		BroadcastWall: 3 * time.Millisecond,
		DecodeWall:    time.Millisecond,
		TotalWall:     4 * time.Millisecond,
		PeakInFlight:  8,
		Faults: engine.FaultStats{
			Injected: true, Dropped: 3, Corrupted: 2, FlippedBits: 6, Straggled: 5,
			FeedbackDropped: 1, FeedbackCorrupted: 1,
			Resilience: core.ResilienceDegraded,
		},
	}
}

// testTranscript builds a small transcript with empty, byte-aligned, and
// ragged-length messages.
func testTranscript(t *testing.T) *engine.Transcript {
	t.Helper()
	tr := engine.NewTranscript()
	round := func(bits ...[]bool) {
		msgs := make([]*bitio.Writer, len(bits))
		for v, bs := range bits {
			if bs == nil {
				continue
			}
			w := &bitio.Writer{}
			for _, b := range bs {
				w.WriteBit(b)
			}
			msgs[v] = w
		}
		tr.SealRound(msgs)
	}
	round(nil, []bool{true, false, true}, []bool{true, true, true, true, true, true, true, true})
	round([]bool{false}, nil, []bool{true, false, true, false, true, false, true, false, true})
	return tr
}

func TestRunSpecRoundTrip(t *testing.T) {
	spec := RunSpec{
		Label:    "mm/trial3",
		Protocol: "mm-tworound",
		Graph:    GraphSpec{Kind: "gnp", N: 50, M: 2, R: 3, T: 4, P: 0.3, Seed: 13},
		Seed:     14,
		Workers:  8,
		Faults:   FaultSpec{Drop: 0.15, Corrupt: 0.1, Flip: 3, Straggle: 0.2, DelayNS: 100_000, FbDrop: 0.5, FbCorrupt: 0.25, Seed: 202},
	}
	got, err := DecodeRunSpec(EncodeRunSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("round trip changed spec:\n got %+v\nwant %+v", got, spec)
	}
}

func TestBatchSpecRoundTrip(t *testing.T) {
	specs := SmokeSpecs(4)
	got, err := DecodeBatchSpec(EncodeBatchSpec(specs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("got %d specs, want %d", len(got), len(specs))
	}
	for i := range specs {
		if got[i] != specs[i] {
			t.Fatalf("spec %d changed:\n got %+v\nwant %+v", i, got[i], specs[i])
		}
	}
}

func TestRunStatsRoundTrip(t *testing.T) {
	want := testStats()
	enc1 := EncodeRunStats(want)
	got, err := DecodeRunStats(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeRunStats(got), enc1) {
		t.Fatalf("stats round trip not byte-identical:\n got %+v\nwant %+v", got, want)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	want := testStats()
	got, err := StatsFromJSON(StatsToJSON(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeRunStats(got), EncodeRunStats(want)) {
		t.Fatalf("stats JSON round trip drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestTranscriptRoundTrip(t *testing.T) {
	want := testTranscript(t)
	enc1 := EncodeTranscript(want)
	got, err := DecodeTranscript(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2 := EncodeTranscript(got)
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("decode(encode(t)) re-encodes differently")
	}
	if got.Rounds() != want.Rounds() {
		t.Fatalf("rounds: got %d want %d", got.Rounds(), want.Rounds())
	}
	for round := 0; round < want.Rounds(); round++ {
		if got.Players(round) != want.Players(round) {
			t.Fatalf("round %d players: got %d want %d", round, got.Players(round), want.Players(round))
		}
		for v := 0; v < want.Players(round); v++ {
			if got.BitLen(round, v) != want.BitLen(round, v) {
				t.Fatalf("round %d player %d bitlen: got %d want %d", round, v, got.BitLen(round, v), want.BitLen(round, v))
			}
		}
	}
}

func TestCrossVersionRejected(t *testing.T) {
	data := EncodeTranscript(testTranscript(t))
	data[4] = Version + 1
	_, err := DecodeTranscript(data)
	if err == nil {
		t.Fatal("future-version frame accepted")
	}
	if !strings.Contains(err.Error(), "unsupported wire version") || !strings.Contains(err.Error(), fmt.Sprintf("speaks version %d", Version)) {
		t.Fatalf("unclear cross-version error: %v", err)
	}
}

func TestFrameValidation(t *testing.T) {
	good := EncodeRunSpec(SmokeSpecs(1)[0])
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"short", func(b []byte) []byte { return b[:3] }, "too short"},
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"kind", func(b []byte) []byte { b[5] = kindTranscript; return b }, "holds a transcript"},
		{"unknown-kind", func(b []byte) []byte { b[5] = 200; return b }, "kind(200)"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-2] }, "declares"},
		{"trailing", func(b []byte) []byte { return append(b, 0xff) }, "declares"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), good...))
			_, err := DecodeRunSpec(data)
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestNonCanonicalPaddingRejected(t *testing.T) {
	tr := engine.NewTranscript()
	w := &bitio.Writer{}
	w.WriteUint(0b101, 3)
	tr.SealRound([]*bitio.Writer{w})
	data := EncodeTranscript(tr)
	// The single message's packed byte sits just before the round's
	// trailing feedback length (zero, one byte); set one of the message's
	// five padding bits.
	data[len(data)-2] |= 1 << 6
	if _, err := DecodeTranscript(data); err == nil || !strings.Contains(err.Error(), "padding") {
		t.Fatalf("non-canonical padding not rejected: %v", err)
	}
}

func TestRunReportRoundTrip(t *testing.T) {
	report, err := ExecuteSpec(context.Background(), SmokeSpecs(2)[3]) // mm-tworound
	if err != nil {
		t.Fatal(err)
	}
	enc1 := EncodeRunReport(report)
	got, err := DecodeRunReport(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeRunReport(got), enc1) {
		t.Fatal("report round trip not byte-identical")
	}
	if got.Digest() != report.Digest() {
		t.Fatalf("digest drifted: got %s want %s", got.Digest(), report.Digest())
	}
	if !got.Outcome.Checked || !got.Outcome.Valid {
		t.Fatalf("mm outcome should verify maximal matching, got %+v", got.Outcome)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	report, err := ExecuteSpec(context.Background(), SmokeSpecs(1)[5]) // faulted agm backup
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReportFromJSON(ReportToJSON(report, true))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeTranscript(got.Transcript), EncodeTranscript(report.Transcript)) {
		t.Fatal("JSON round trip changed the transcript")
	}
	if got.Stats.Faults.Resilience != report.Stats.Faults.Resilience {
		t.Fatalf("resilience drifted: got %v want %v", got.Stats.Faults.Resilience, report.Stats.Faults.Resilience)
	}
	if !report.Stats.Faults.Injected {
		t.Fatal("faulted spec reported no injection")
	}
}

func TestExecuteSpecDeterministicAcrossWorkers(t *testing.T) {
	for _, spec := range SmokeSpecs(1) {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			r1, err := ExecuteSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Workers = 8
			r8, err := ExecuteSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Digest() != r8.Digest() {
				t.Fatalf("workers changed the transcript: 1 -> %s, 8 -> %s", r1.Digest(), r8.Digest())
			}
		})
	}
}

func TestExecuteBatchMatchesExecuteSpec(t *testing.T) {
	specs := SmokeSpecs(1)
	items := ExecuteBatch(context.Background(), &engine.Engine{Workers: 4}, specs)
	if len(items) != len(specs) {
		t.Fatalf("got %d items, want %d", len(items), len(specs))
	}
	for i, it := range items {
		if it.Err != "" {
			t.Fatalf("item %d (%s) failed: %s", i, it.Label, it.Err)
		}
		single, err := ExecuteSpec(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if it.Stats.TotalBits != single.Stats.TotalBits || it.Stats.MaxMessageBits != single.Stats.MaxMessageBits {
			t.Fatalf("item %d (%s): batch stats diverge from single run", i, it.Label)
		}
		if it.Outcome != single.Outcome {
			t.Fatalf("item %d (%s): outcome %+v != %+v", i, it.Label, it.Outcome, single.Outcome)
		}
	}
}

func TestExecuteBatchReportRoundTrip(t *testing.T) {
	specs := []RunSpec{
		SmokeSpecs(1)[0],
		{Label: "bad", Protocol: "no-such-protocol", Graph: GraphSpec{Kind: "gnp", N: 5, P: 0.5}},
	}
	items := ExecuteBatch(context.Background(), &engine.Engine{Workers: 2}, specs)
	if items[1].Err == "" || !strings.Contains(items[1].Err, "unknown protocol") {
		t.Fatalf("bad spec not reported: %+v", items[1])
	}
	enc1 := EncodeBatchReport(items)
	got, err := DecodeBatchReport(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeBatchReport(got), enc1) {
		t.Fatal("batch report round trip not byte-identical")
	}
}

// TestOneVertexEqualityErrors: the equality problem compares vertices 0
// and 1, so a one-vertex graph of any kind must come back as an error
// from ExecuteSpec, not a panic on an engine worker.
func TestOneVertexEqualityErrors(t *testing.T) {
	for _, g := range []GraphSpec{
		{Kind: "gnp", N: 1, P: 0.5},
		{Kind: "path", N: 1},
		{Kind: "star", N: 1},
		{Kind: "complete", N: 1},
		{Kind: "grid", R: 1, T: 1},
	} {
		spec := RunSpec{Label: "poison", Protocol: "equality-public-coin", Graph: g, Seed: 1}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Kind, err)
		}
		if _, err := ExecuteSpec(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "n >= 2") {
			t.Fatalf("%s: error %v, want the n >= 2 error", g.Kind, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := SmokeSpecs(1)[0]
	cases := []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"no-protocol", func(s *RunSpec) { s.Protocol = "" }},
		{"unknown-protocol", func(s *RunSpec) { s.Protocol = "nope" }},
		{"no-graph", func(s *RunSpec) { s.Graph.Kind = "" }},
		{"negative-workers", func(s *RunSpec) { s.Workers = -1 }},
		{"bad-drop", func(s *RunSpec) { s.Faults.Drop = 1.5 }},
		{"negative-delay", func(s *RunSpec) { s.Faults.DelayNS = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mutate(&spec)
			if err := spec.Validate(); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

func TestBuildGraphKinds(t *testing.T) {
	cases := []struct {
		spec  GraphSpec
		wantN int
	}{
		{GraphSpec{Kind: "gnp", N: 20, P: 0.5, Seed: 1}, 20},
		{GraphSpec{Kind: "gnp-bipartite", N: 4, M: 6, P: 0.5, Seed: 1}, 10},
		{GraphSpec{Kind: "path", N: 7}, 7},
		{GraphSpec{Kind: "cycle", N: 5}, 5},
		{GraphSpec{Kind: "complete", N: 6}, 6},
		{GraphSpec{Kind: "star", N: 9}, 9},
		{GraphSpec{Kind: "grid", R: 3, T: 4}, 12},
		{GraphSpec{Kind: "matching-union", N: 10, M: 2, Seed: 3}, 10},
		{GraphSpec{Kind: "rs-disjoint", R: 4, T: 8}, 0}, // N checked non-zero below
	}
	for _, tc := range cases {
		g, err := BuildGraph(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Kind, err)
		}
		if tc.wantN > 0 && g.N() != tc.wantN {
			t.Fatalf("%s: n=%d want %d", tc.spec.Kind, g.N(), tc.wantN)
		}
		if tc.wantN == 0 && g.N() == 0 {
			t.Fatalf("%s: empty graph", tc.spec.Kind)
		}
	}
	if _, err := BuildGraph(GraphSpec{Kind: "mystery"}); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
	if _, err := BuildGraph(GraphSpec{Kind: "gnp", N: 10, P: 2}); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
}
