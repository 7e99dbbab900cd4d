package main

// The output check. Every timed response is compared, outside its timed
// span, with a reference: a hit with the daemon's warm-up response for
// the same spec, a miss or batch item with an in-process execution
// through wire.ExecuteSpec / wire.ExecuteBatch. A mismatch counts as a
// failed operation, like a non-2xx reply.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/wire"
)

// fingerprint is the part of a result that must not depend on where or
// when it was computed: the transcript digest, the outcome, and the
// deterministic run statistics (wall times and scheduling are left out).
type fingerprint struct {
	Digest  string
	Outcome string
	Stats   string
	Err     string

	// The exact transcript counts, kept apart for the traced summary.
	MaxBits      int
	PlayerBits   int64
	FeedbackBits int64
}

func outcomeKey(o wire.Outcome) string {
	return fmt.Sprintf("%s|%d|%x|%t|%t", o.Kind, o.Size, math.Float64bits(o.Value), o.Checked, o.Valid)
}

// statsKey renders every RunStats field the determinism contract fixes.
func statsKey(s *engine.RunStats) string {
	return fmt.Sprintf("%s|n%d|r%d/%d|b%d|e%d|max%d|%v|%v|tot%d|%v|fb%d|%v|%+v",
		s.Protocol, s.N, s.CompletedRounds, s.Rounds, s.Broadcasts, s.EmptyMessages,
		s.MaxMessageBits, s.RoundMaxBits, s.RoundTotalBits, s.TotalBits, s.RoundBits,
		s.FeedbackBits, s.Hist, s.Faults)
}

func statsFingerprint(s *engine.RunStats, o wire.Outcome) fingerprint {
	return fingerprint{
		Outcome:      outcomeKey(o),
		Stats:        statsKey(s),
		MaxBits:      s.MaxMessageBits,
		PlayerBits:   s.TotalBits,
		FeedbackBits: s.FeedbackBits,
	}
}

// reportFingerprint fingerprints a /v1/run result.
func reportFingerprint(r *wire.RunReport) fingerprint {
	fp := statsFingerprint(&r.Stats, r.Outcome)
	fp.Digest = r.Digest()
	return fp
}

// itemFingerprint fingerprints one /v1/batch item (no transcript).
func itemFingerprint(it *wire.BatchItem) fingerprint {
	fp := statsFingerprint(&it.Stats, it.Outcome)
	fp.Err = it.Err
	return fp
}

// mismatch describes how got differs from want, or returns "".
func mismatch(got, want fingerprint) string {
	switch {
	case got.Err != want.Err:
		return fmt.Sprintf("error %q, want %q", got.Err, want.Err)
	case got.Digest != want.Digest:
		return fmt.Sprintf("digest %s, want %s", got.Digest, want.Digest)
	case got.Outcome != want.Outcome:
		return fmt.Sprintf("outcome %s, want %s", got.Outcome, want.Outcome)
	case got.Stats != want.Stats:
		return fmt.Sprintf("stats %s, want %s", got.Stats, want.Stats)
	}
	return ""
}

// checkFrame fingerprints an encoded /v1/run response; an undecodable
// frame is reported through the fingerprint's error.
func checkFrame(frame []byte) fingerprint {
	r, err := wire.DecodeRunReport(frame)
	if err != nil {
		return fingerprint{Err: "decode: " + err.Error()}
	}
	return reportFingerprint(r)
}

// referenceRuns executes specs in-process, two at a time, and returns
// their fingerprints in order.
func referenceRuns(ctx context.Context, specs []wire.RunSpec) []fingerprint {
	out := make([]fingerprint, len(specs))
	parallel(len(specs), func(i int) {
		r, err := wire.ExecuteSpec(ctx, specs[i])
		if err != nil {
			out[i] = fingerprint{Err: err.Error()}
			return
		}
		out[i] = reportFingerprint(r)
	})
	return out
}

// referenceBatch executes one batch in-process and fingerprints its items.
func referenceBatch(ctx context.Context, specs []wire.RunSpec) []fingerprint {
	items := wire.ExecuteBatch(ctx, &engine.Engine{Workers: 2}, specs)
	out := make([]fingerprint, len(items))
	for i := range items {
		out[i] = itemFingerprint(&items[i])
	}
	return out
}

// parallel calls f(0..n-1) on two goroutines (the target's core count).
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
