package wire

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
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
