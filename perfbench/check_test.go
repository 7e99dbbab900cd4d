package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/wire"
)

func TestOutputCheckFlagsCorruptedReplies(t *testing.T) {
	ctx := context.Background()
	w, err := findWorkload("hit-small")
	if err != nil {
		t.Fatal(err)
	}
	p := w.plan(5)
	refs := &references{working: make([][]byte, len(p.working))}
	for j, s := range p.working {
		r, err := wire.ExecuteSpec(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		refs.working[j] = wire.EncodeRunReport(r)
	}
	frame := refs.working[1]
	rep, err := wire.DecodeRunReport(frame)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh execution differs from the recorded reply only in wall
	// times: it takes the semantic path and passes.
	fresh, err := wire.ExecuteSpec(ctx, p.working[1])
	if err != nil {
		t.Fatal(err)
	}

	// A frame with a flipped byte no longer matches its reference, and
	// a well-formed reply carrying another run's transcript fails on
	// the digest.
	flipped := bytes.Clone(frame)
	flipped[len(flipped)/2] ^= 0xff
	if m := mismatch(checkFrame(flipped), checkFrame(frame)); m == "" {
		t.Error("flipped byte not flagged")
	}
	other, err := wire.ExecuteSpec(ctx, p.working[1+len(hitSmallShapes)])
	if err != nil {
		t.Fatal(err)
	}
	swapped := *rep
	swapped.Transcript = other.Transcript
	bad := wire.EncodeRunReport(&swapped)
	// A forged outcome with an intact transcript.
	forged := *rep
	forged.Outcome.Size++

	samples := []sample{{req: 1}, {req: 1}, {req: 1}, {req: 1 + len(p.working)}, {req: 1}}
	for i, body := range [][]byte{frame, bad, wire.EncodeRunReport(&forged), frame, wire.EncodeRunReport(fresh)} {
		r, err := wire.DecodeRunReport(body)
		if err != nil {
			t.Fatal(err)
		}
		samples[i].deferred, samples[i].check = refs.hit(samples[i].req, phaseTimed, body, r)
	}
	if samples[0].deferred || samples[3].deferred {
		t.Error("byte-identical hits should pass without a deferred check")
	}
	probs := verify(ctx, w, p, referenceRuns(ctx, p.working), refs, samples)
	if !samples[4].deferred {
		t.Error("a reply with other wall times should be checked semantically")
	}
	if probs[0] != "" || probs[3] != "" || probs[4] != "" {
		t.Errorf("correct replies flagged: %q, %q, %q", probs[0], probs[3], probs[4])
	}
	if !strings.Contains(probs[1], "digest") {
		t.Errorf("corrupted transcript not flagged by digest: %q", probs[1])
	}
	if !strings.Contains(probs[2], "outcome") {
		t.Errorf("forged outcome not flagged: %q", probs[2])
	}
}

func TestOutputCheckFlagsWrongMissesAndBatchItems(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"miss-mixed", "sketch-batch"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.plan(9)
		var samples []sample
		for i := 0; i < 2; i++ {
			var fps []fingerprint
			if w.batch {
				fps = referenceBatch(ctx, p.next(i))
			} else {
				fps = referenceRuns(ctx, p.next(i))
			}
			samples = append(samples, sample{req: i, check: fps})
		}
		samples[1].check[0].Stats += "x"
		samples = append(samples, sample{req: 2, err: "500 Internal Server Error"})
		probs := verify(ctx, w, p, nil, &references{}, samples)
		if probs[0] != "" {
			t.Errorf("%s: correct reply flagged: %s", name, probs[0])
		}
		if !strings.Contains(probs[1], "stats") {
			t.Errorf("%s: wrong stats not flagged: %q", name, probs[1])
		}
		if probs[2] == "" {
			t.Errorf("%s: failed request not counted", name)
		}
	}
}
