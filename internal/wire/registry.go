package wire

// The protocol registry maps wire names to the in-process protocol
// constructors, and the executor turns a RunSpec into a RunReport. This
// is the single execution path shared by the refereed daemon and by local
// callers (cmd/sketchlab's sweep, tests), which is what makes the
// local-vs-remote byte-parity invariant a property of ONE code path fed
// through two transports rather than two implementations kept in sync.
//
// The registry itself lives in package protocol: every protocol package
// self-registers from init(), and wire links the full set through the
// blank imports in protocols.go. Adding a protocol to the wire is
// therefore one register.go file in its own package, not an edit here.

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// Outcome is the uniform decoded-output summary the wire carries; see
// protocol.Outcome.
type Outcome = protocol.Outcome

// lookupProtocol resolves a registry name.
func lookupProtocol(name string) (protocol.Builder, error) {
	return protocol.Lookup(name)
}

// Protocols returns the sorted names of every registered protocol.
func Protocols() []string { return protocol.Names() }

// RunReport is the full result of executing one RunSpec: the echoed spec,
// the run's metrics (with the resilience verdict under Stats.Faults), the
// summarized output, and the exact sealed transcript.
type RunReport struct {
	Spec       RunSpec
	Stats      engine.RunStats
	Outcome    Outcome
	Transcript *engine.Transcript
}

// Digest returns the content address of the report's transcript.
func (r *RunReport) Digest() string { return TranscriptDigest(r.Transcript) }

// ExecuteSpec runs one spec end to end: materialize the graph, construct
// the protocol, re-derive the coin trees from the spec's seeds, execute
// (through the fault injector when the spec carries an active plan), and
// decode. The transcript in the returned report is byte-identical for
// every Workers value and for every transport that leads here — that is
// the service's core invariant, enforced by the golden parity tests.
func ExecuteSpec(ctx context.Context, spec RunSpec) (*RunReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g, err := BuildGraph(spec.Graph)
	if err != nil {
		return nil, err
	}
	build, err := lookupProtocol(spec.Protocol)
	if err != nil {
		return nil, err
	}
	return execute(ctx, spec, g, build(g))
}

// execute runs p over g under the spec's workers, seeds and fault plan.
func execute(ctx context.Context, spec RunSpec, g *graph.Graph, p engine.Protocol[Outcome]) (*RunReport, error) {
	eng := &engine.Engine{Workers: spec.Workers}
	coins := rng.NewPublicCoins(spec.Seed)

	var (
		res        engine.Result[Outcome]
		transcript *engine.Transcript
		err        error
	)
	if plan := spec.Faults.Plan(); plan.Active() {
		faultCoins := rng.NewPublicCoins(spec.Faults.Seed).Derive("faults")
		res, transcript, err = faults.RunWithTranscript(ctx, eng, p, g, coins, plan, faultCoins)
	} else {
		res, transcript, err = engine.RunWithTranscript(ctx, eng, p, g, coins)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: execute %s: %w", spec.Protocol, err)
	}
	return &RunReport{Spec: spec, Stats: res.Stats, Outcome: res.Output, Transcript: transcript}, nil
}

// BatchItem is one job's result in a batch report. Err is the job's own
// failure rendered as text (empty on success); other jobs still run.
type BatchItem struct {
	Label   string
	Err     string
	Stats   engine.RunStats
	Outcome Outcome
}

// ExecuteBatch runs a batch of specs. Clean specs flow through
// engine.RunBatch over a shared pool of e.Workers job-level workers
// (each job sequential inside, so every job stays bit-identical to a
// standalone run); faulted specs run one by one through the fault
// injector. Results return in spec order. Batch reports carry stats and
// outcomes but no transcripts — batches are for sweeps, where the
// per-job digest workflow of /v1/run does not apply.
func ExecuteBatch(ctx context.Context, e *engine.Engine, specs []RunSpec) []BatchItem {
	items := make([]BatchItem, len(specs))
	var jobs []engine.Job[Outcome]
	var jobIdx []int
	for i, spec := range specs {
		items[i].Label = spec.Label
		if err := spec.Validate(); err != nil {
			items[i].Err = err.Error()
			continue
		}
		g, err := BuildGraph(spec.Graph)
		if err != nil {
			items[i].Err = err.Error()
			continue
		}
		build, _ := lookupProtocol(spec.Protocol)
		p := build(g)
		coins := rng.NewPublicCoins(spec.Seed)
		if plan := spec.Faults.Plan(); plan.Active() {
			faultCoins := rng.NewPublicCoins(spec.Faults.Seed).Derive("faults")
			res, err := faults.Run(ctx, &engine.Engine{Workers: 1}, p, g, coins, plan, faultCoins)
			items[i].Stats = res.Stats
			items[i].Outcome = res.Output
			if err != nil {
				items[i].Err = err.Error()
			}
			continue
		}
		jobs = append(jobs, engine.Job[Outcome]{Label: spec.Label, Protocol: p, Graph: g, Coins: coins})
		jobIdx = append(jobIdx, i)
	}
	results, _ := engine.RunBatch(ctx, e, jobs)
	for j, jr := range results {
		i := jobIdx[j]
		items[i].Stats = jr.Result.Stats
		items[i].Outcome = jr.Result.Output
		if jr.Err != nil {
			items[i].Err = jr.Err.Error()
		}
	}
	return items
}

// EncodeRunReport serializes a report as one frame.
func EncodeRunReport(r *RunReport) []byte {
	size := enc{sizing: true}
	appendRunSpecPayload(&size, r.Spec)
	appendResultPayload(&size, r)
	e := size.frame(kindRunReport)
	appendRunSpecPayload(&e, r.Spec)
	appendResultPayload(&e, r)
	return e.b
}

// DecodeRunReport inverts EncodeRunReport.
func DecodeRunReport(data []byte) (*RunReport, error) {
	payload, err := openFrame(data, kindRunReport)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	r := &RunReport{}
	r.Spec = decodeRunSpecPayload(d)
	r.Stats = *decodeRunStatsPayload(d)
	r.Outcome = decodeOutcomePayload(d)
	r.Transcript = decodeTranscriptPayload(d)
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

func appendOutcomePayload(e *enc, o Outcome) {
	e.str(o.Kind)
	e.uint(o.Size)
	e.f64(o.Value)
	e.bool(o.Checked)
	e.bool(o.Valid)
}

func decodeOutcomePayload(d *dec) Outcome {
	var o Outcome
	o.Kind = d.str("outcome kind")
	o.Size = d.int("outcome size")
	o.Value = d.f64()
	o.Checked = d.bool()
	o.Valid = d.bool()
	return o
}

// EncodeBatchReport serializes batch results as one frame.
func EncodeBatchReport(items []BatchItem) []byte {
	size := enc{sizing: true}
	appendBatchReportPayload(&size, items)
	e := size.frame(kindBatchReport)
	appendBatchReportPayload(&e, items)
	return e.b
}

func appendBatchReportPayload(e *enc, items []BatchItem) {
	e.uint(len(items))
	for i := range items {
		e.str(items[i].Label)
		e.str(items[i].Err)
		appendRunStatsPayload(e, &items[i].Stats)
		appendOutcomePayload(e, items[i].Outcome)
	}
}

// DecodeBatchReport inverts EncodeBatchReport.
func DecodeBatchReport(data []byte) ([]BatchItem, error) {
	payload, err := openFrame(data, kindBatchReport)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	n := d.length("batch item", 8)
	items := make([]BatchItem, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		var it BatchItem
		it.Label = d.str("label")
		it.Err = d.str("error text")
		it.Stats = *decodeRunStatsPayload(d)
		it.Outcome = decodeOutcomePayload(d)
		items = append(items, it)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return items, nil
}
