package wire

import (
	"bytes"
	"context"
	"testing"
)

// TestSpecCacheKeyNormalizesResultNeutralFields: Label and Workers are
// the two fields that cannot change a result; every result-bearing
// field must change the key.
func TestSpecCacheKeyNormalizesResultNeutralFields(t *testing.T) {
	base := SmokeSpecs(1)[0]
	key := SpecCacheKey(base)

	relabeled := base
	relabeled.Label = "some-other-name"
	relabeled.Workers = 8
	if SpecCacheKey(relabeled) != key {
		t.Fatal("Label/Workers changed the cache key; they are result-neutral")
	}

	mutations := map[string]func(*RunSpec){
		"protocol":   func(s *RunSpec) { s.Protocol = "mm-tworound" },
		"graph kind": func(s *RunSpec) { s.Graph.Kind = "path" },
		"graph n":    func(s *RunSpec) { s.Graph.N++ },
		"graph p":    func(s *RunSpec) { s.Graph.P += 0.01 },
		"graph seed": func(s *RunSpec) { s.Graph.Seed++ },
		"coin seed":  func(s *RunSpec) { s.Seed++ },
		"fault drop": func(s *RunSpec) { s.Faults.Drop = 0.5 },
		"fault seed": func(s *RunSpec) { s.Faults.Seed++ },
	}
	for name, mutate := range mutations {
		spec := base
		mutate(&spec)
		if SpecCacheKey(spec) == key {
			t.Errorf("mutating %s left the cache key unchanged", name)
		}
	}
}

// TestCachedReportBytesIdentical is the memoization correctness
// argument in executable form: re-framing a stored result payload under
// the requesting spec's echo yields byte-for-byte the frame a fresh
// encoding would produce.
func TestCachedReportBytesIdentical(t *testing.T) {
	spec := SmokeSpecs(2)[3] // mm-tworound
	report, err := ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	stored := EncodeResultPayload(report)
	if got, want := EncodeRunReportForSpec(spec, stored), EncodeRunReport(report); !bytes.Equal(got, want) {
		t.Fatal("cached re-framing diverges from fresh encoding")
	}
	// And the re-framed bytes decode back to the same transcript digest.
	decoded, err := DecodeRunReport(EncodeRunReportForSpec(spec, stored))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Digest() != report.Digest() {
		t.Fatal("digest drifted through the cache round trip")
	}
}

// TestRunReportHeadMatchesFrame: a head followed by its result payload
// is, byte for byte, the frame EncodeRunReportForSpec builds — for every
// smoke spec's own result, and for results that put the frame's payload
// length on either side of each point where its uvarint grows a byte
// (2⁷, 2¹⁴ and 2²¹ bytes).
func TestRunReportHeadMatchesFrame(t *testing.T) {
	check := func(spec RunSpec, result []byte) {
		t.Helper()
		head := RunReportHead(spec, len(result))
		if len(head) != cap(head) {
			t.Errorf("%s: %d-byte head in a %d-byte buffer", spec.Label, len(head), cap(head))
		}
		got := append(head, result...)
		if want := EncodeRunReportForSpec(spec, result); !bytes.Equal(got, want) {
			t.Errorf("%s: head and %d-byte result differ from the frame", spec.Label, len(result))
		}
	}
	for _, spec := range SmokeSpecs(1) {
		report, err := ExecuteSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		check(spec, EncodeResultPayload(report))
		size := enc{sizing: true}
		appendRunSpecPayload(&size, spec)
		for _, boundary := range []int{1 << 7, 1 << 14, 1 << 21} {
			for _, payloadLen := range []int{boundary - 1, boundary} {
				if payloadLen < size.n {
					continue // this spec's echo alone is longer
				}
				result := make([]byte, payloadLen-size.n)
				for i := range result {
					result[i] = byte(i)
				}
				check(spec, result)
			}
		}
	}
}

// TestResultEntryMatchesPayloadAndDigest: for every smoke spec's result,
// EncodeResultEntry's bytes behind its room are EncodeResultPayload's,
// the room is zero, and its digest is the report's own Digest — the
// digest hashed from the payload's transcript section is the digest of
// the transcript frame.
func TestResultEntryMatchesPayloadAndDigest(t *testing.T) {
	for _, spec := range SmokeSpecs(1) {
		report, err := ExecuteSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		payload, want := EncodeResultPayload(report), report.Digest()
		for _, room := range []int{0, 1 + DigestLen} {
			entry, digest := EncodeResultEntry(report, room)
			if !bytes.Equal(entry[:room], make([]byte, room)) || !bytes.Equal(entry[room:], payload) {
				t.Errorf("%s: entry with %d bytes of room is not the room then the result payload", spec.Label, room)
			}
			if digest != want {
				t.Errorf("%s: entry digest %s, report digest %s", spec.Label, digest, want)
			}
		}
	}
}

// TestResultSummaryPrefixDecode: a summary decodes from both the
// summary form and as a prefix of the full result payload.
func TestResultSummaryPrefixDecode(t *testing.T) {
	spec := SmokeSpecs(1)[4] // mis-tworound
	report, err := ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"summary": EncodeResultSummary(&report.Stats, report.Outcome),
		"full":    EncodeResultPayload(report),
	} {
		stats, outcome, err := DecodeResultSummary(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.TotalBits != report.Stats.TotalBits {
			t.Fatalf("%s: TotalBits %d != %d", name, stats.TotalBits, report.Stats.TotalBits)
		}
		if outcome != report.Outcome {
			t.Fatalf("%s: outcome %+v != %+v", name, outcome, report.Outcome)
		}
	}
	if _, _, err := DecodeResultSummary([]byte{0xff}); err == nil {
		t.Fatal("corrupt result payload must error, not panic")
	}
}
