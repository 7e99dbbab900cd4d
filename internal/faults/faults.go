// Package faults injects deterministic, seed-derived channel faults into
// sketching-protocol executions.
//
// The paper's model (Section 2.1) assumes every player's message reaches
// the referee intact. The implemented upper bounds, however, are
// randomized protocols whose ℓ₀-samplers already tolerate an internal
// failure probability δ — so it is natural to ask how each protocol
// degrades when the channel itself misbehaves. This package perturbs an
// execution at three points:
//
//   - drop: player v's round-r broadcast is replaced by an empty message,
//   - corruption: k bits of the broadcast are flipped before the round
//     seals, so players in later rounds and the referee see the same
//     corrupted transcript,
//   - straggler: the broadcast is delayed by a configurable duration,
//     exercising the engine's worker pool and context cancellation. A
//     straggler never changes any bit of the transcript.
//
// Every fault decision is drawn from rng.PublicCoins sub-streams labeled
// fault/drop/<round>/<v>, fault/corrupt/<round>/<v>, fault/flip/<round>/<v>
// and fault/straggle/<round>/<v>. Because the labels depend only on the
// (round, vertex) coordinate — never on scheduling — a fixed (protocol,
// graph, coins, Plan, fault coins) tuple reproduces the identical faulted
// transcript at ANY engine.Workers setting, extending the engine's
// determinism contract to adversarial runs. The same property lets the
// referee re-derive the exact fault sites from the public fault coins
// (Plan.Evaluate), which models a channel whose damage is authenticated
// (e.g. MAC'd frames): the referee always knows WHERE the channel
// misbehaved, while the protocol-level resilience decoders additionally
// detect damage from the message contents alone.
package faults

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
)

// Plan configures which faults are injected and how hard.
// The zero value injects nothing.
type Plan struct {
	// DropProb is the per-(round, vertex) probability that the broadcast
	// is replaced by an empty message. Drops take precedence over
	// corruption: a dropped message is never also corrupted.
	DropProb float64
	// CorruptProb is the per-(round, vertex) probability that FlipBits
	// bit positions of the broadcast are flipped. Empty messages cannot
	// be corrupted.
	CorruptProb float64
	// FlipBits is the number of flip injections per corrupted message
	// (positions are drawn with replacement, so an even number of hits
	// on the same position cancels). Zero means the default of 3.
	FlipBits int
	// StragglerProb is the per-(round, vertex) probability that the
	// broadcast is delayed by StragglerDelay.
	StragglerProb float64
	// StragglerDelay is the artificial delay of a straggling broadcast.
	// Zero means the default of 1ms.
	StragglerDelay time.Duration

	// FeedbackDropProb and FeedbackCorruptProb extend the plan to the
	// referee's per-round feedback broadcasts (engine.Adaptive). They
	// follow the player-message conventions: a dropped feedback seals as
	// an empty slot, a corrupted one has FlipBits bit positions flipped
	// before sealing (drops take precedence), and decisions come from the
	// labeled sub-streams fault/fb-drop/<round>/0 and
	// fault/fb-corrupt/<round>/0 (fault/fb-flip/<round>/0 for positions).
	// Both default to zero — feedback rounds untouched — so plans recorded
	// before feedback existed reproduce their committed faulted
	// transcripts bit for bit.
	FeedbackDropProb    float64
	FeedbackCorruptProb float64
}

// Active reports whether the plan injects any faults at all.
func (p Plan) Active() bool {
	return p.DropProb > 0 || p.CorruptProb > 0 || p.StragglerProb > 0 ||
		p.FeedbackDropProb > 0 || p.FeedbackCorruptProb > 0
}

func (p Plan) flipBits() int {
	if p.FlipBits <= 0 {
		return 3
	}
	return p.FlipBits
}

func (p Plan) stragglerDelay() time.Duration {
	if p.StragglerDelay <= 0 {
		return time.Millisecond
	}
	return p.StragglerDelay
}

// String renders the plan in the -faults flag syntax.
func (p Plan) String() string {
	if !p.Active() {
		return "none"
	}
	var parts []string
	if p.DropProb > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropProb))
	}
	if p.CorruptProb > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g,flip=%d", p.CorruptProb, p.flipBits()))
	}
	if p.StragglerProb > 0 {
		parts = append(parts, fmt.Sprintf("straggle=%g,delay=%s", p.StragglerProb, p.stragglerDelay()))
	}
	if p.FeedbackDropProb > 0 {
		parts = append(parts, fmt.Sprintf("fbdrop=%g", p.FeedbackDropProb))
	}
	if p.FeedbackCorruptProb > 0 {
		parts = append(parts, fmt.Sprintf("fbcorrupt=%g", p.FeedbackCorruptProb))
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the sketchlab -faults flag syntax: a comma-separated
// list of key=value pairs with keys drop, corrupt, flip, straggle, delay,
// fbdrop, fbcorrupt,
// e.g. "drop=0.1,corrupt=0.05,flip=4,straggle=0.01,delay=2ms,fbdrop=0.2".
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return p, fmt.Errorf("faults: bad plan element %q (want key=value)", part)
		}
		switch key {
		case "drop", "corrupt", "straggle", "fbdrop", "fbcorrupt":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return p, fmt.Errorf("faults: bad probability %q for %s", val, key)
			}
			switch key {
			case "drop":
				p.DropProb = f
			case "corrupt":
				p.CorruptProb = f
			case "straggle":
				p.StragglerProb = f
			case "fbdrop":
				p.FeedbackDropProb = f
			case "fbcorrupt":
				p.FeedbackCorruptProb = f
			}
		case "flip":
			k, err := strconv.Atoi(val)
			if err != nil || k < 1 {
				return p, fmt.Errorf("faults: bad flip count %q", val)
			}
			p.FlipBits = k
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return p, fmt.Errorf("faults: bad delay %q", val)
			}
			p.StragglerDelay = d
		default:
			return p, fmt.Errorf("faults: unknown plan key %q", key)
		}
	}
	return p, nil
}

// coin evaluates one Bernoulli fault decision from its labeled sub-stream.
// Deriving by label makes the decision a pure function of (coins, kind,
// round, vertex) — independent of scheduling order.
func coin(coins *rng.PublicCoins, kind string, round, v int, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return coins.Derive(fmt.Sprintf("fault/%s/%d/%d", kind, round, v)).Source().Float64() < prob
}

// flipPositions returns the k bit positions (with replacement) flipped in
// the round-r broadcast of vertex v, given its message length in bits.
// kind is "flip" for player messages and "fb-flip" for referee feedback,
// keeping the two lanes on independent labeled streams.
func flipPositions(coins *rng.PublicCoins, kind string, round, v, msgBits, k int) []int {
	src := coins.Derive(fmt.Sprintf("fault/%s/%d/%d", kind, round, v)).Source()
	pos := make([]int, k)
	for i := range pos {
		pos[i] = src.Intn(msgBits)
	}
	return pos
}

// Injector wraps an engine.Broadcaster and applies a Plan's faults to
// every broadcast. It is safe for concurrent use by the engine's worker
// pool: all fault decisions are pure label-derived functions, and the
// straggler sleep is interruptible via the injector's context.
type Injector struct {
	inner engine.Broadcaster
	plan  Plan
	coins *rng.PublicCoins
	done  <-chan struct{} // interrupts straggler sleeps
}

// NewInjector wraps inner with the plan's faults. Fault coins must be a
// sub-stream independent from the protocol's own coins (derive them with a
// distinct label); ctx bounds straggler sleeps so cancellation is prompt.
func NewInjector(ctx context.Context, inner engine.Broadcaster, plan Plan, faultCoins *rng.PublicCoins) *Injector {
	return &Injector{inner: inner, plan: plan, coins: faultCoins, done: ctx.Done()}
}

// Name identifies the faulted protocol in stats reports.
func (i *Injector) Name() string { return i.inner.Name() + "+faults" }

// Rounds forwards the wrapped protocol's round count.
func (i *Injector) Rounds() int { return i.inner.Rounds() }

// Broadcast runs the wrapped broadcast and perturbs its result according
// to the plan. Corruption is applied to the writer before the engine seals
// the round, so every later-round player and the referee observe the same
// corrupted transcript — the faulted run stays a valid execution of the
// sketching model over a damaged channel.
func (i *Injector) Broadcast(round int, view core.VertexView, t *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	if coin(i.coins, "straggle", round, view.ID, i.plan.StragglerProb) {
		timer := time.NewTimer(i.plan.stragglerDelay())
		select {
		case <-timer.C:
		case <-i.done:
			timer.Stop()
			// The engine checks ctx between vertices; returning the
			// unfaulted broadcast here keeps partial transcripts
			// bit-consistent if the round still seals.
		}
	}
	w, err := i.inner.Broadcast(round, view, t, coins)
	if err != nil {
		return w, err
	}
	if coin(i.coins, "drop", round, view.ID, i.plan.DropProb) {
		// The inner message is discarded unread; recycle its scratch
		// buffer now since the engine will only ever see the empty stand-in.
		bitio.Release(w)
		return &bitio.Writer{}, nil
	}
	if w != nil && w.Len() > 0 && coin(i.coins, "corrupt", round, view.ID, i.plan.CorruptProb) {
		for _, pos := range flipPositions(i.coins, "flip", round, view.ID, w.Len(), i.plan.flipBits()) {
			w.FlipBit(pos)
		}
	}
	return w, nil
}

// BroadcastBlock keeps the injector on the engine's columnar fast path:
// the inner protocol computes the whole block (through its own block
// path when it has one), then the plan's faults are applied message by
// message. Every fault decision is label-derived from (round, view.ID)
// alone, so the faulted transcript is bit-identical to the per-vertex
// Broadcast path's — block boundaries cannot shift any coin stream.
// Straggler sleeps happen before the inner computation, preserving the
// per-vertex path's "delay then broadcast" ordering per message.
func (i *Injector) BroadcastBlock(round int, views []core.VertexView, t *engine.Transcript, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	for _, view := range views {
		if coin(i.coins, "straggle", round, view.ID, i.plan.StragglerProb) {
			timer := time.NewTimer(i.plan.stragglerDelay())
			select {
			case <-timer.C:
			case <-i.done:
				timer.Stop()
			}
		}
	}
	if bb, ok := i.inner.(engine.BlockBroadcaster); ok {
		if bad, err := bb.BroadcastBlock(round, views, t, coins, out); err != nil {
			return bad, err
		}
	} else {
		for idx, view := range views {
			w, err := i.inner.Broadcast(round, view, t, coins)
			if err != nil {
				return idx, err
			}
			out[idx] = w
		}
	}
	for idx, view := range views {
		w := out[idx]
		if coin(i.coins, "drop", round, view.ID, i.plan.DropProb) {
			bitio.Release(w)
			out[idx] = &bitio.Writer{}
			continue
		}
		if w != nil && w.Len() > 0 && coin(i.coins, "corrupt", round, view.ID, i.plan.CorruptProb) {
			for _, pos := range flipPositions(i.coins, "flip", round, view.ID, w.Len(), i.plan.flipBits()) {
				w.FlipBit(pos)
			}
		}
	}
	return 0, nil
}

// Feedback makes the Injector adaptive whenever its inner protocol is,
// forwarding the referee's feedback and perturbing it under the plan's
// feedback-fault knobs before the engine seals it — exactly the player
// pipeline, one lane down. For a non-adaptive inner protocol the inner
// feedback is nil; the fault coins are still consulted (a channel drops
// frames without asking whether they were empty), which keeps
// Plan.Evaluate a pure function of (coins, transcript) with no knowledge
// of the protocol's adaptivity.
func (i *Injector) Feedback(round int, t *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	var w *bitio.Writer
	if ap, ok := i.inner.(engine.Adaptive); ok {
		var err error
		w, err = ap.Feedback(round, t, coins)
		if err != nil {
			return w, err
		}
	}
	if coin(i.coins, "fb-drop", round, 0, i.plan.FeedbackDropProb) {
		bitio.Release(w)
		return &bitio.Writer{}, nil
	}
	if w != nil && w.Len() > 0 && coin(i.coins, "fb-corrupt", round, 0, i.plan.FeedbackCorruptProb) {
		for _, pos := range flipPositions(i.coins, "fb-flip", round, 0, w.Len(), i.plan.flipBits()) {
			w.FlipBit(pos)
		}
	}
	return w, nil
}

// Record is the deterministic account of which faults a plan injected
// into a sealed transcript, re-derived from the public fault coins.
type Record struct {
	Dropped           int
	Corrupted         int
	FlippedBits       int
	Straggled         int
	FeedbackDropped   int
	FeedbackCorrupted int
}

// Clean reports whether no message content was damaged (stragglers do not
// count: they only delay, never alter bits).
func (r Record) Clean() bool {
	return r.Dropped == 0 && r.Corrupted == 0 &&
		r.FeedbackDropped == 0 && r.FeedbackCorrupted == 0
}

// Evaluate re-derives the fault record over the sealed rounds of a
// transcript. Because every decision is label-derived, this reproduces
// exactly what an Injector with the same plan and coins did during the
// run — the referee-side view of an authenticated channel. Corruption of
// a message is determined from its sealed length: drops leave zero bits
// (so the corrupt coin, even if it fired, had nothing to flip), and
// corruption preserves length.
func (p Plan) Evaluate(faultCoins *rng.PublicCoins, t *engine.Transcript, n int) Record {
	var rec Record
	if t == nil || !p.Active() {
		return rec
	}
	for round := 0; round < t.Rounds(); round++ {
		for v := 0; v < n; v++ {
			if coin(faultCoins, "straggle", round, v, p.StragglerProb) {
				rec.Straggled++
			}
			if coin(faultCoins, "drop", round, v, p.DropProb) {
				rec.Dropped++
				continue
			}
			if t.BitLen(round, v) > 0 && coin(faultCoins, "corrupt", round, v, p.CorruptProb) {
				rec.Corrupted++
				rec.FlippedBits += p.flipBits()
			}
		}
		// The referee's feedback lane mirrors the player conventions:
		// drops count whenever the coin fired (a dropped feedback seals
		// empty, exactly as the Injector left it), corruption only where
		// the sealed feedback has bits to flip — so the record matches the
		// Injector's actions without knowing whether the protocol was
		// adaptive at all.
		if coin(faultCoins, "fb-drop", round, 0, p.FeedbackDropProb) {
			rec.FeedbackDropped++
			continue
		}
		if t.FeedbackBitLen(round) > 0 && coin(faultCoins, "fb-corrupt", round, 0, p.FeedbackCorruptProb) {
			rec.FeedbackCorrupted++
			rec.FlippedBits += p.flipBits()
		}
	}
	return rec
}
