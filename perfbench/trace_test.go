package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/cache"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "item", Parent: 0, Start: ms(10), End: ms(60)},
		{Name: "gen.build", Parent: 1, Start: ms(12), End: ms(20)},
		{Name: "engine.broadcast", Parent: 1, Start: ms(20), End: ms(50)},
		// Overlapping and out-of-parent children are counted once, and
		// only inside the parent's interval.
		{Name: "wire.encode", Parent: 0, Start: ms(55), End: ms(70)},
		{Name: "cache.put", Parent: 0, Start: ms(90), End: ms(120)},
	}
	want := []time.Duration{
		ms(100 - 50 - 15 - 10 + 5), // children cover [10,70) and [90,100)
		ms(50 - 8 - 30),
		ms(8), ms(30), ms(15), ms(30),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestBreakdownSumsLayersPerRequest(t *testing.T) {
	tr := &tracer{
		reqs: []reqInfo{{Phase: phaseTimed, Latency: ms(100)}, {Phase: phaseTimed, Latency: ms(50)}},
		spans: []span{
			{Name: "request", Parent: -1, Req: 0, Start: ms(0), End: ms(80)},
			{Name: "wire.encode", Parent: 0, Req: 0, Start: ms(0), End: ms(10)},
			{Name: "item", Parent: 0, Req: 0, Start: ms(10), End: ms(50)},
			{Name: "engine.broadcast", Parent: 2, Req: 0, Start: ms(10), End: ms(40)},
			{Name: "wire.encode", Parent: 0, Req: 0, Start: ms(50), End: ms(55)},
			// The probe is outside the daemon path: counted as a layer,
			// never subtracted from end-to-end latency.
			{Name: "probe", Parent: -1, Req: 0, Start: ms(80), End: ms(90)},
			{Name: "agm.sketch", Parent: 5, Req: 0, Start: ms(80), End: ms(88)},
			{Name: "request", Parent: -1, Req: 1, Start: ms(100), End: ms(120)},
			{Name: "wire.encode", Parent: 7, Req: 1, Start: ms(100), End: ms(104)},
		},
	}
	b := tr.breakdown()
	if got := b[0].layers["wire.encode"].d; got != ms(15) {
		t.Errorf("request 0 wire.encode = %v, want 15ms", got)
	}
	// 15ms of encoding plus the 40ms item, whose children do not count
	// again: the daemon runs batch items concurrently.
	if got := b[0].inProcess; got != ms(55) {
		t.Errorf("request 0 in-process = %v, want 55ms", got)
	}
	if got := b[0].layers["agm.sketch"].d; got != ms(8) {
		t.Errorf("request 0 agm.sketch = %v, want 8ms", got)
	}
	figs := layerFigures(b, func(reqInfo) bool { return true })
	if got := figs["wire.encode_ms"].Value; got != 9.5 {
		t.Errorf("wire.encode_ms median = %v, want 9.5", got)
	}
	// server.http_ms is latency minus the in-process path: 45 and 46.
	if got := figs["server.http_ms"].Value; got != 45.5 {
		t.Errorf("server.http_ms median = %v, want 45.5", got)
	}
	if got := figs["engine.overhead_ms"].Value; got != 22 {
		t.Errorf("engine.overhead_ms = %v, want 22 (broadcast 30 - sketch 8)", got)
	}
	if got := figs["l0.update_ns"].Value; got != 0 {
		t.Errorf("a layer no request reaches should report 0, got %v", got)
	}
}

func TestReplayRecordsEveryHitAndMissLayer(t *testing.T) {
	w, err := findWorkload("hit-small")
	if err != nil {
		t.Fatal(err)
	}
	r := request{w.plan(3).working[0]}
	tr := newTracer()
	lru := cache.New(1 << 20)
	for _, ph := range []phase{phaseWarm, phaseTimed} {
		tr.replay(context.Background(), w, r, ph, sample{latency: time.Second}, 100, lru)
	}
	if len(tr.errs) > 0 {
		t.Fatal(tr.errs)
	}
	b := tr.breakdown()
	if b[0].info.Hit || !b[1].info.Hit {
		t.Fatalf("want a miss then a hit, got hit=%v,%v", b[0].info.Hit, b[1].info.Hit)
	}
	for _, name := range []string{"wire.spec_decode", "wire.validate", "wire.cache_key", "cache.get",
		"gen.build", "protocol.build", "engine.broadcast", "engine.decode", "wire.encode", "cache.put",
		"wire.digest", "client.decode"} {
		if _, ok := b[0].layers[name]; !ok {
			t.Errorf("miss replay has no %s span", name)
		}
	}
	for _, name := range []string{"wire.reframe", "wire.report_decode", "wire.digest", "client.decode"} {
		if _, ok := b[1].layers[name]; !ok {
			t.Errorf("hit replay has no %s span", name)
		}
	}
}

func TestProbeBatchTimesEveryKernel(t *testing.T) {
	w, err := findWorkload("sketch-batch")
	if err != nil {
		t.Fatal(err)
	}
	r := w.plan(5).next(0)
	tr := newTracer()
	tr.reqs = append(tr.reqs, reqInfo{Phase: phaseTimed})
	if err := tr.probeBatch(r); err != nil {
		t.Fatal(err)
	}
	b := tr.breakdown()
	for _, name := range []string{"agm.sketch", "l0.update_block", "l0.update", "l0.write_lane",
		"field.reduce_block", "field.pow_block", "hashing.level_block"} {
		lt, ok := b[0].layers[name]
		if !ok || (name != "agm.sketch" && lt.work == 0) {
			t.Errorf("probe has no %s span with work", name)
		}
	}
	if got, want := b[0].layers["l0.update"].work, b[0].layers["l0.update_block"].work; got != want {
		t.Errorf("scalar and block paths saw %d and %d updates", got, want)
	}
}
