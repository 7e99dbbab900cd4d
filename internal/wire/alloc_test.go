package wire

import (
	"context"
	"testing"

	"repro/internal/bitio"
	"repro/internal/engine"
)

// Allocation guards for the transcript codec: frames are sized before
// they are written, and decoding copies each message once, so the
// allocation counts are fixed by the transcript's shape alone.

var sinkFrame []byte

// uniformTranscript seals rounds×players messages of msgBytes bytes each
// (the last one 3 bits short, so padding is exercised) plus one feedback
// message per round.
func uniformTranscript(rounds, players, msgBytes int) *engine.Transcript {
	fill := func(seed int) *bitio.Writer {
		w := &bitio.Writer{}
		nbit := 8*msgBytes - 3
		for i := 0; i < nbit; i += 64 {
			w.WriteUint(uint64(seed+i)*0x9e3779b97f4a7c15, min(64, nbit-i))
		}
		return w
	}
	t := engine.NewTranscript()
	for r := 0; r < rounds; r++ {
		msgs := make([]*bitio.Writer, players)
		for v := range msgs {
			msgs[v] = fill(r*players + v)
		}
		t.SealRound(msgs)
		t.SealFeedback(fill(-r))
	}
	return t
}

// TestEncodeTranscriptAllocatesOnce: the frame is the only allocation.
func TestEncodeTranscriptAllocatesOnce(t *testing.T) {
	tr := uniformTranscript(3, 20, 4<<10)
	if n := testing.AllocsPerRun(20, func() { sinkFrame = EncodeTranscript(tr) }); n != 1 {
		t.Fatalf("EncodeTranscript allocates %v times per frame, want 1", n)
	}
}

// TestEncodeRunReportForSpecAllocatesOnce: re-framing a cached result —
// the daemon's whole hit-path encode — is one allocation, the frame.
func TestEncodeRunReportForSpecAllocatesOnce(t *testing.T) {
	spec := SmokeSpecs(1)[3] // mm-tworound: feedback as well as player bits
	report, err := ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	result := EncodeResultPayload(report)
	if n := testing.AllocsPerRun(20, func() { sinkFrame = EncodeRunReportForSpec(spec, result) }); n != 1 {
		t.Fatalf("EncodeRunReportForSpec allocates %v times per frame, want 1", n)
	}
}

// TestDecodeTranscriptAllocsIndependentOfLength: decoding costs the same
// number of allocations for 1 KB and 64 KB messages of the same shape.
func TestDecodeTranscriptAllocsIndependentOfLength(t *testing.T) {
	allocs := func(msgBytes int) float64 {
		data := EncodeTranscript(uniformTranscript(2, 8, msgBytes))
		return testing.AllocsPerRun(10, func() {
			if _, err := DecodeTranscript(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(64<<10)
	if small != large {
		t.Fatalf("DecodeTranscript allocates %v times for 1 KB messages but %v for 64 KB ones", small, large)
	}
}

// TestFramesSizedExactly: every encoder's sizing pass agrees with its
// writing pass, so no output buffer ever grows or carries spare capacity.
func TestFramesSizedExactly(t *testing.T) {
	specs := SmokeSpecs(1)
	report, err := ExecuteSpec(context.Background(), specs[3])
	if err != nil {
		t.Fatal(err)
	}
	items := ExecuteBatch(context.Background(), &engine.Engine{Workers: 1}, specs[:3])
	result := EncodeResultPayload(report)
	for name, out := range map[string][]byte{
		"run-spec":      EncodeRunSpec(specs[0]),
		"batch-spec":    EncodeBatchSpec(specs),
		"run-stats":     EncodeRunStats(&report.Stats),
		"transcript":    EncodeTranscript(report.Transcript),
		"nil":           EncodeTranscript(nil),
		"run-report":    EncodeRunReport(report),
		"batch-report":  EncodeBatchReport(items),
		"result":        result,
		"summary":       EncodeResultSummary(&report.Stats, report.Outcome),
		"report-reused": EncodeRunReportForSpec(specs[3], result),
	} {
		if len(out) != cap(out) {
			t.Errorf("%s: %d bytes written into a %d-byte buffer", name, len(out), cap(out))
		}
	}
}
