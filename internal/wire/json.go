package wire

// JSON forms of the service exchange. ReportJSON is the encoding shared
// by the daemon's /v1/run response under Accept: application/json and by
// cmd/sketchlab -json, so a sweep's machine-readable output and the
// service's are the same bytes modulo wall-clock fields.

import (
	"encoding/json"
	"fmt"

	"repro/internal/engine"
)

// ReportJSON is the JSON form of RunReport. Transcript is the full
// binary transcript frame (base64 under encoding/json's []byte rules);
// it is omitted where only the digest matters.
type ReportJSON struct {
	Spec       RunSpec   `json:"spec"`
	Stats      StatsJSON `json:"stats"`
	Outcome    Outcome   `json:"outcome"`
	Resilience string    `json:"resilience"`
	Digest     string    `json:"digest"`
	Transcript []byte    `json:"transcript,omitempty"`
}

// ReportToJSON converts a report to its JSON form. withTranscript
// controls whether the full transcript frame rides along or only its
// digest.
func ReportToJSON(r *RunReport, withTranscript bool) ReportJSON {
	j := SummaryToJSON(r.Spec, &r.Stats, r.Outcome, r.Digest())
	if withTranscript {
		j.Transcript = EncodeTranscript(r.Transcript)
	}
	return j
}

// SummaryToJSON builds the transcript-less JSON form of a report from its
// parts, for callers that hold the transcript's digest but not the
// transcript itself — the daemon's cache hits.
func SummaryToJSON(spec RunSpec, stats *engine.RunStats, o Outcome, digest string) ReportJSON {
	return ReportJSON{
		Spec:       spec,
		Stats:      StatsToJSON(stats),
		Outcome:    o,
		Resilience: stats.Faults.Resilience.String(),
		Digest:     digest,
	}
}

// ReportFromJSON converts the JSON form back to a RunReport. A report
// without a transcript yields Transcript == nil; when a transcript is
// present its digest must match the declared one.
func ReportFromJSON(j ReportJSON) (*RunReport, error) {
	stats, err := StatsFromJSON(j.Stats)
	if err != nil {
		return nil, err
	}
	r := &RunReport{Spec: j.Spec, Stats: *stats, Outcome: j.Outcome}
	if len(j.Transcript) > 0 {
		t, err := DecodeTranscript(j.Transcript)
		if err != nil {
			return nil, err
		}
		if got := TranscriptDigest(t); j.Digest != "" && got != j.Digest {
			return nil, fmt.Errorf("wire: transcript digest %s does not match declared %s", got, j.Digest)
		}
		r.Transcript = t
	}
	return r, nil
}

// BatchItemJSON is the JSON form of BatchItem.
type BatchItemJSON struct {
	Label   string    `json:"label,omitempty"`
	Err     string    `json:"error,omitempty"`
	Stats   StatsJSON `json:"stats"`
	Outcome Outcome   `json:"outcome"`
}

// BatchToJSON converts batch items to their JSON form.
func BatchToJSON(items []BatchItem) []BatchItemJSON {
	out := make([]BatchItemJSON, len(items))
	for i := range items {
		out[i] = BatchItemJSON{
			Label:   items[i].Label,
			Err:     items[i].Err,
			Stats:   StatsToJSON(&items[i].Stats),
			Outcome: items[i].Outcome,
		}
	}
	return out
}

// MarshalReportJSON renders a report as indented JSON.
func MarshalReportJSON(r *RunReport, withTranscript bool) ([]byte, error) {
	return json.MarshalIndent(ReportToJSON(r, withTranscript), "", "  ")
}
