package wire

// Result memoization support. A seed-only RunSpec fully determines its
// transcript — that is the determinism contract the golden fixtures pin
// — so the canonical spec encoding is a content address for the result,
// and a result cache keyed by it can serve stored bytes in place of
// re-execution with no invalidation story at all.
//
// Two spec fields are normalized out of the key because they cannot
// influence the result: Label is a pure echo (it names the run in
// reports and logs), and Workers is a pure throughput knob (the
// engine's determinism contract makes every worker count produce the
// same transcript). Everything else — protocol, graph, seeds, fault
// plan — is result-bearing and stays in the key byte for byte.
//
// The cached value is the result payload: stats, outcome, transcript,
// in exactly the layout EncodeRunReport uses after the spec echo.
// Serving a hit is therefore pure concatenation — RunReportHead builds
// the frame header and the requesting spec's echo, and the stored bytes
// follow it as they are — and the response is byte-identical to what a
// fresh execution would have produced, except that the stats' wall-time
// and scheduling fields describe the execution that populated the cache
// (bit counts, outcome, resilience, and the transcript itself are
// execution-independent). A hit never needs the transcript as a value:
// DecodeResultSummary reads the stats and outcome prefix, and the
// daemon stores the transcript's digest (DigestLen bytes) beside the
// payload when it stores the result, so a hit computes neither.

import "repro/internal/engine"

// SpecCacheKey returns the content address under which a spec's result
// may be memoized: the canonical payload encoding of the spec with the
// two result-neutral fields (Label, Workers) zeroed.
func SpecCacheKey(s RunSpec) string {
	s.Label = ""
	s.Workers = 0
	size := enc{sizing: true}
	appendRunSpecPayload(&size, s)
	e := size.payload()
	appendRunSpecPayload(&e, s)
	return string(e.b)
}

// EncodeResultPayload serializes the spec-independent portion of a
// report — stats, outcome, transcript — the value a result cache
// stores under SpecCacheKey.
func EncodeResultPayload(r *RunReport) []byte {
	payload, _ := encodeResult(r, 0)
	return payload
}

// EncodeResultEntry is EncodeResultPayload behind room leading zero
// bytes, for a caller to fill with the head of a cache value, in one
// allocation. It also returns r.Digest(), hashed from the transcript
// section of that payload behind the section's frame header, so a fresh
// result's transcript is encoded once for its digest, its cache entry
// and its response.
func EncodeResultEntry(r *RunReport, room int) (entry []byte, digest string) {
	entry, transcriptAt := encodeResult(r, room)
	return entry, frameDigest(kindTranscript, entry[transcriptAt:])
}

// encodeResult writes r's result payload after room zero bytes into a
// buffer allocated at exactly that size, and returns it with the offset
// at which the payload's transcript section starts.
func encodeResult(r *RunReport, room int) (buf []byte, transcriptAt int) {
	size := enc{sizing: true}
	appendResultSummary(&size, &r.Stats, r.Outcome)
	transcriptAt = room + size.n
	appendTranscriptPayload(&size, r.Transcript)
	e := enc{b: make([]byte, room, room+size.n)}
	appendResultPayload(&e, r)
	return e.b, transcriptAt
}

func appendResultPayload(e *enc, r *RunReport) {
	appendResultSummary(e, &r.Stats, r.Outcome)
	appendTranscriptPayload(e, r.Transcript)
}

// EncodeResultSummary serializes only the stats and outcome — the
// portion a batch item carries. A summary is a prefix of the full
// result payload, so DecodeResultSummary reads either form.
func EncodeResultSummary(stats *engine.RunStats, o Outcome) []byte {
	size := enc{sizing: true}
	appendResultSummary(&size, stats, o)
	e := size.payload()
	appendResultSummary(&e, stats, o)
	return e.b
}

func appendResultSummary(e *enc, stats *engine.RunStats, o Outcome) {
	appendRunStatsPayload(e, stats)
	appendOutcomePayload(e, o)
}

// DecodeResultSummary decodes the stats and outcome prefix of a cached
// result payload (full or summary form), without materializing a
// transcript.
func DecodeResultSummary(result []byte) (engine.RunStats, Outcome, error) {
	d := &dec{b: result}
	stats := decodeRunStatsPayload(d)
	o := decodeOutcomePayload(d)
	if d.err != nil {
		return engine.RunStats{}, Outcome{}, d.err
	}
	return *stats, o, nil
}

// EncodeRunReportForSpec frames a cached full result payload as a
// complete RunReport response echoing spec — byte-identical to
// EncodeRunReport of a report computed fresh for spec (modulo the
// stats caveat above), because both the spec payload and the stored
// result payload are canonical encodings. The result is copied once,
// into a frame allocated at its exact size.
func EncodeRunReportForSpec(spec RunSpec, result []byte) []byte {
	e := runReportHead(spec, len(result), len(result))
	e.raw(result)
	return e.b
}

// RunReportHead returns the bytes that precede a resultLen-byte result
// payload in a RunReport frame echoing spec: the frame header and the
// spec echo, allocated at exactly their size. RunReportHead(spec,
// len(result)) followed by result is EncodeRunReportForSpec(spec, result)
// byte for byte, so a daemon writes a stored result behind its head
// without copying it.
func RunReportHead(spec RunSpec, resultLen int) []byte {
	return runReportHead(spec, resultLen, 0).b
}

// runReportHead writes a RunReport frame's header and spec echo for a
// resultLen-byte result into a buffer with room for extra more bytes.
func runReportHead(spec RunSpec, resultLen, extra int) enc {
	size := enc{sizing: true}
	appendRunSpecPayload(&size, spec)
	e := frameHeader(kindRunReport, size.n+resultLen, size.n+extra)
	appendRunSpecPayload(&e, spec)
	return e
}
