package wire

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
)

// Allocation guards for the transcript codec: frames are sized before
// they are written, and decoding adopts each message where it lies in
// the frame, so what decoding allocates is fixed by the transcript's
// shape alone.

var sinkFrame []byte

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, averaged over runs calls after a warm-up call,
// with GOMAXPROCS at 1 as AllocsPerRun sets it.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

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

// TestEncodeResultEntryAllocation: encoding a ~2 MB result behind a
// cache value's head and hashing its digest allocates the entry and at
// most 64 KiB besides — the transcript is never encoded a second time
// to be hashed.
func TestEncodeResultEntryAllocation(t *testing.T) {
	reports, err := largeReports()
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0] // agm-forest, n = 100
	const room = 1 + DigestLen
	entry, _ := EncodeResultEntry(r, room)
	if len(entry) < 1<<20 {
		t.Fatalf("entry is %d bytes, want a result of about 2 MB", len(entry))
	}
	perRun := bytesPerRun(5, func() { sinkFrame, _ = EncodeResultEntry(r, room) })
	if limit := uint64(len(entry)) + 64<<10; perRun > limit {
		t.Fatalf("EncodeResultEntry allocates %d bytes for a %d-byte entry, want at most %d", perRun, len(entry), limit)
	}
}

// TestDecodeTranscriptAllocsIndependentOfLength: decoding costs the same
// number of allocations, and the same number of bytes, for 1 KB and
// 64 KB messages of the same shape — no message is copied out of the
// frame.
func TestDecodeTranscriptAllocsIndependentOfLength(t *testing.T) {
	type cost struct {
		allocs float64
		bytes  uint64
	}
	measure := func(msgBytes int) cost {
		data := EncodeTranscript(uniformTranscript(2, 8, msgBytes))
		decode := func() {
			if _, err := DecodeTranscript(data); err != nil {
				t.Fatal(err)
			}
		}
		return cost{testing.AllocsPerRun(10, decode), bytesPerRun(10, decode)}
	}
	small, large := measure(1<<10), measure(64<<10)
	if small.allocs != large.allocs {
		t.Fatalf("DecodeTranscript allocates %v times for 1 KB messages but %v for 64 KB ones", small.allocs, large.allocs)
	}
	if small.bytes != large.bytes {
		t.Fatalf("DecodeTranscript allocates %d bytes for 1 KB messages but %d for 64 KB ones", small.bytes, large.bytes)
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
	entry, _ := EncodeResultEntry(report, 1+DigestLen)
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
		"report-head":   RunReportHead(specs[3], len(result)),
		"result-entry":  entry,
	} {
		if len(out) != cap(out) {
			t.Errorf("%s: %d bytes written into a %d-byte buffer", name, len(out), cap(out))
		}
	}
}

// TestConcatenatedSketchAllocs: mst-weight and agm-cut-sparsifier build
// each vertex message from several AGM sketches (one forest per weight
// threshold, one skeleton per level). Each grows its message once to its
// exact length and appends every sketch straight into it, so one
// vertex's Sketch allocates at most 1.25× its message's bytes. Growing
// the message by doubling and copying scratch sub-sketches into it costs
// 2.5× to 3.7×.
func TestConcatenatedSketchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the sketch arena at random under the race detector")
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"mst-weight", 220}, {"agm-cut-sparsifier", 120}} {
		g, err := BuildGraph(GraphSpec{Kind: "gnp", N: c.n, P: 8 / float64(c.n-1), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		build, err := lookupProtocol(c.name)
		if err != nil {
			t.Fatal(err)
		}
		p := build(g)
		views := core.Views(g)
		coins := rng.NewPublicCoins(5)
		v, msgBytes := 0, 0
		perSketch := bytesPerRun(20, func() {
			w, err := p.Broadcast(0, views[v%len(views)], nil, coins)
			if err != nil {
				t.Fatal(err)
			}
			msgBytes = len(w.Bytes()) // every vertex's message has the same length
			v++
		})
		ratio := float64(perSketch) / float64(msgBytes)
		t.Logf("%s: one Sketch allocates %d bytes for a %d-byte message (%.2f×)", c.name, perSketch, msgBytes, ratio)
		if ratio > 1.25 {
			t.Errorf("%s: %.2f× its message's bytes, want ≤ 1.25×", c.name, ratio)
		}
	}
}
