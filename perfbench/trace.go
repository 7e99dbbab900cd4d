package main

// The traced run. It is never the timed one: after each real request it
// replays that request in-process through the public calls the daemon
// makes, in handleRun / handleBatch order, recording one span per call.
// Spans stay in memory and are written out when the run ends; per-layer
// figures are span self-times.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bitio"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/field"
	"repro/internal/hashing"
	"repro/internal/l0"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/wire"
)

// The replay's own result cache stores values tagged like the daemon's:
// a full entry (stats, outcome, transcript) or a batch summary.
const (
	cacheSummary byte = 0
	cacheFull    byte = 1
)

// span is one timed call. Names with a dot are layers; "request",
// "item" and "probe" group their children.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index in the tracer's spans; -1 for a root
	Req    int           `json:"req"`    // index in the tracer's requests
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Work   int           `json:"work,omitempty"` // elements processed (kernel spans)
}

// reqInfo describes one real request whose replay the spans record.
type reqInfo struct {
	Phase   phase
	Hit     bool
	Latency time.Duration
	Bytes   int
}

// tracer records the spans of one connection's goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	reqs  []reqInfo
	errs  []string
	probe kernelProbe
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: len(t.reqs) - 1, Start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.epoch) }

func (t *tracer) endWork(i, work int) {
	t.spans[i].End = time.Since(t.epoch)
	t.spans[i].Work = work
}

func (t *tracer) fail(err error) {
	t.errs = append(t.errs, fmt.Sprintf("replay of request %d: %v", len(t.reqs)-1, err))
}

// replay re-executes request r in-process after its real counterpart.
func (t *tracer) replay(ctx context.Context, w *workload, r request, ph phase, s sample, bytes int, lru *cache.LRU) {
	if s.err != "" {
		return
	}
	t.reqs = append(t.reqs, reqInfo{Phase: ph, Latency: s.latency, Bytes: bytes})
	var err error
	if w.batch {
		if err = t.replayBatch(ctx, wire.EncodeBatchSpec(r), lru); err == nil {
			err = t.probeBatch(r)
		}
	} else {
		err = t.replayRun(ctx, wire.EncodeRunSpec(r[0]), lru)
	}
	if err != nil {
		t.fail(err)
	}
}

// replayRun follows the daemon's /v1/run path, then the client's decode.
func (t *tracer) replayRun(ctx context.Context, body []byte, lru *cache.LRU) error {
	root := t.begin("request", -1)
	defer t.end(root)
	sp := t.begin("wire.spec_decode", root)
	spec, err := wire.DecodeRunSpec(body)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("wire.validate", root)
	err = spec.Validate()
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("wire.cache_key", root)
	key := wire.SpecCacheKey(spec)
	t.end(sp)
	sp = t.begin("cache.get", root)
	val, ok := lru.Get(key)
	t.end(sp)

	var (
		frame  []byte
		report *wire.RunReport
	)
	if ok && val[0] == cacheFull {
		t.reqs[len(t.reqs)-1].Hit = true
		sp = t.begin("wire.reframe", root)
		frame = wire.EncodeRunReportForSpec(spec, val[1:])
		t.end(sp)
		sp = t.begin("wire.report_decode", root)
		report, err = wire.DecodeRunReport(frame)
		t.end(sp)
		if err != nil {
			return err
		}
	} else {
		if report, err = t.execute(ctx, root, spec); err != nil {
			return err
		}
		sp = t.begin("wire.encode", root)
		payload := wire.EncodeResultPayload(report)
		t.end(sp)
		sp = t.begin("cache.put", root)
		lru.Put(key, append([]byte{cacheFull}, payload...))
		t.end(sp)
		sp = t.begin("wire.encode", root)
		frame = wire.EncodeRunReport(report)
		t.end(sp)
	}
	sp = t.begin("wire.digest", root)
	report.Digest()
	t.end(sp)
	sp = t.begin("client.decode", root)
	_, err = wire.DecodeRunReport(frame)
	t.end(sp)
	return err
}

// execute is wire.ExecuteSpec split at its layer boundaries.
func (t *tracer) execute(ctx context.Context, parent int, spec wire.RunSpec) (*wire.RunReport, error) {
	sp := t.begin("gen.build", parent)
	g, err := wire.BuildGraph(spec.Graph)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("protocol.build", parent)
	p, err := protocol.Build(spec.Protocol, g)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	eng := &engine.Engine{Workers: spec.Workers}
	coins := rng.NewPublicCoins(spec.Seed)
	if plan := spec.Faults.Plan(); plan.Active() {
		faultCoins := rng.NewPublicCoins(spec.Faults.Seed).Derive("faults")
		sp = t.begin("faults.run", parent)
		res, tr, err := faults.RunWithTranscript(ctx, eng, p, g, coins, plan, faultCoins)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		return &wire.RunReport{Spec: spec, Stats: res.Stats, Outcome: res.Output, Transcript: tr}, nil
	}
	sp = t.begin("engine.broadcast", parent)
	tr, stats, err := eng.Execute(ctx, p, g, coins)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("engine.decode", parent)
	out, err := p.Decode(g.N(), tr, coins)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	return &wire.RunReport{Spec: spec, Stats: *stats, Outcome: out, Transcript: tr}, nil
}

// replayBatch follows the daemon's /v1/batch path (items sequentially,
// where the daemon runs them on its batch pool), then the client's decode.
func (t *tracer) replayBatch(ctx context.Context, body []byte, lru *cache.LRU) error {
	root := t.begin("request", -1)
	defer t.end(root)
	sp := t.begin("wire.spec_decode", root)
	specs, err := wire.DecodeBatchSpec(body)
	t.end(sp)
	if err != nil {
		return err
	}
	keys := make([]string, len(specs))
	for i, spec := range specs {
		sp = t.begin("wire.cache_key", root)
		keys[i] = wire.SpecCacheKey(spec)
		t.end(sp)
		sp = t.begin("cache.get", root)
		_, hit := lru.Get(keys[i])
		t.end(sp)
		if hit {
			return fmt.Errorf("batch spec %q already cached", spec.Label)
		}
	}
	items := make([]wire.BatchItem, len(specs))
	for i, spec := range specs {
		item := t.begin("item", root)
		sp = t.begin("wire.validate", item)
		err := spec.Validate()
		t.end(sp)
		var rep *wire.RunReport
		if err == nil {
			rep, err = t.execute(ctx, item, spec)
		}
		t.end(item)
		if err != nil {
			return err
		}
		items[i] = wire.BatchItem{Label: spec.Label, Stats: rep.Stats, Outcome: rep.Outcome}
	}
	for i := range items {
		sp = t.begin("wire.encode", root)
		val := append([]byte{cacheSummary}, wire.EncodeResultSummary(&items[i].Stats, items[i].Outcome)...)
		t.end(sp)
		sp = t.begin("cache.put", root)
		lru.PutIfAbsent(keys[i], val)
		t.end(sp)
	}
	sp = t.begin("wire.encode", root)
	frame := wire.EncodeBatchReport(items)
	t.end(sp)
	sp = t.begin("client.decode", root)
	_, err = wire.DecodeBatchReport(frame)
	t.end(sp)
	return err
}

// probeSpecs is the number of l0 sampler specs the kernel probe feeds
// each graph's incidence updates through.
const probeSpecs = 4

// probeLanes matches the AGM block path's bank width.
const probeLanes = 128

// kernelProbe is the reusable scratch of the sketch-kernel probe.
type kernelProbe struct {
	bank    *l0.Bank
	upd     l0.BlockUpdates
	w       bitio.Writer
	idx     []uint64
	exp     []uint64
	neg     []bool
	laneEnd []int
	red     []field.Elem
	pow     []field.Elem
	lvl     []int32
}

// probeBatch times the player sketch calls of each batch item outside
// the engine, then runs the kernel probe over the item's graph.
func (t *tracer) probeBatch(r request) error {
	root := t.begin("probe", -1)
	defer t.end(root)
	for _, spec := range r {
		g, err := wire.BuildGraph(spec.Graph)
		if err != nil {
			return err
		}
		p, err := protocol.Build(spec.Protocol, g)
		if err != nil {
			return err
		}
		views := core.Views(g)
		coins := rng.NewPublicCoins(spec.Seed)
		out := make([]*bitio.Writer, len(views))
		// One shard holding every vertex: the batch pool runs each job
		// on a one-worker engine.
		sp := t.begin("agm.sketch", root)
		if bb, ok := p.(engine.BlockBroadcaster); ok {
			_, err = bb.BroadcastBlock(0, views, engine.NewTranscript(), coins, out)
		} else {
			for v := range views {
				if out[v], err = p.Broadcast(0, views[v], engine.NewTranscript(), coins); err != nil {
					break
				}
			}
		}
		t.end(sp)
		for _, w := range out {
			bitio.Release(w)
		}
		if err != nil {
			return err
		}
		t.probeKernels(root, views, spec.Seed)
	}
	return nil
}

// probeUpdates is the number of l0 updates the probe makes on views.
func probeUpdates(views []core.VertexView) int {
	m := 0
	for _, v := range views {
		m += len(v.Neighbors)
	}
	return m * probeSpecs
}

// probeKernels feeds the graph's incidence updates — the (index, ±1)
// stream the AGM sketches consume — through the block update, the
// scalar update, lane serialization, and the three batched kernels the
// block update is built from.
func (t *tracer) probeKernels(parent int, views []core.VertexView, seed uint64) {
	k := &t.probe
	if k.bank == nil {
		k.bank = l0.NewBank()
	}
	n := len(views)
	coins := rng.NewPublicCoins(seed).Derive("perfbench/probe")
	sps := make([]l0.Spec, probeSpecs)
	for i := range sps {
		sps[i] = l0.NewSpec(uint64(n)*uint64(n), coins.DeriveIndex(i))
	}
	z := field.Reduce(coins.Derive("z").Source().Uint64())
	if z == 0 {
		z = 1
	}
	pt := field.NewPowTable(z)
	fam := hashing.New(2, coins.Derive("level").Source())
	levels := sps[0].Levels()

	for lo := 0; lo < n; lo += probeLanes {
		chunk := views[lo:min(lo+probeLanes, n)]
		k.upd.Reset()
		k.idx, k.neg, k.laneEnd = k.idx[:0], k.neg[:0], k.laneEnd[:0]
		for lane, view := range chunk {
			for _, u := range view.Neighbors {
				a, b := min(view.ID, u), max(view.ID, u)
				ix := uint64(a)*uint64(n) + uint64(b)
				k.upd.Add(lane, ix, view.ID > u)
				k.idx = append(k.idx, ix)
				k.neg = append(k.neg, view.ID > u)
			}
			k.laneEnd = append(k.laneEnd, len(k.idx))
		}
		m := len(k.idx)
		if m == 0 {
			continue
		}
		for _, sp := range sps {
			k.bank.Reset(sp.Levels(), len(chunk))
			s := t.begin("l0.update_block", parent)
			sp.UpdateBlock(k.bank, &k.upd)
			t.endWork(s, m)
			s = t.begin("l0.write_lane", parent)
			for lane := range chunk {
				k.w.Reset()
				k.bank.WriteLane(&k.w, lane)
			}
			t.endWork(s, len(chunk))
			s = t.begin("l0.update", parent)
			from := 0
			for _, to := range k.laneEnd {
				sk := sp.AcquireSketch()
				for j := from; j < to; j++ {
					delta := int64(1)
					if k.neg[j] {
						delta = -1
					}
					sp.Update(sk, k.idx[j], delta)
				}
				l0.ReleaseSketch(sk)
				from = to
			}
			t.endWork(s, m)
		}
		k.exp = slices.Grow(k.exp[:0], m)[:m]
		k.red = slices.Grow(k.red[:0], m)[:m]
		k.pow = slices.Grow(k.pow[:0], m)[:m]
		k.lvl = slices.Grow(k.lvl[:0], m)[:m]
		for j, ix := range k.idx {
			k.exp[j] = ix + 1
		}
		s := t.begin("field.reduce_block", parent)
		field.ReduceBlock(k.red, k.idx)
		t.endWork(s, m)
		s = t.begin("field.pow_block", parent)
		pt.PowBlock(k.pow, k.exp)
		t.endWork(s, m)
		s = t.begin("hashing.level_block", parent)
		fam.LevelBlock(k.idx, levels-1, k.lvl)
		t.endWork(s, m)
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotal is one layer's self time and work within one request.
type layerTotal struct {
	d    time.Duration
	work int
}

// requestLayers is the per-request breakdown the per-layer metrics take
// medians over.
type requestLayers struct {
	info reqInfo
	// layers maps a layer span name to its summed self time and work.
	layers map[string]layerTotal
	// inProcess is the part of end-to-end latency the replayed daemon
	// path accounts for: the self times of its layers, except that batch
	// items count by the longest one, as the daemon's batch pool runs
	// them concurrently, one per core.
	inProcess time.Duration
}

// breakdown folds a tracer's spans into per-request layer totals.
func (t *tracer) breakdown() []requestLayers {
	out := make([]requestLayers, len(t.reqs))
	for i := range out {
		out[i] = requestLayers{info: t.reqs[i], layers: make(map[string]layerTotal)}
	}
	self := selfTimes(t.spans)
	root := make([]int, len(t.spans))
	inItem := make([]bool, len(t.spans))
	longestItem := make([]time.Duration, len(t.reqs))
	for i, s := range t.spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
			inItem[i] = inItem[s.Parent] || t.spans[s.Parent].Name == "item"
		}
		if s.Req < 0 || t.spans[root[i]].Name != "request" {
			continue
		}
		if s.Name == "item" {
			longestItem[s.Req] = max(longestItem[s.Req], s.End-s.Start)
		}
		if !strings.Contains(s.Name, ".") {
			continue
		}
		if !inItem[i] {
			out[s.Req].inProcess += self[i]
		}
	}
	for i, s := range t.spans {
		if s.Req < 0 || !strings.Contains(s.Name, ".") {
			continue
		}
		lt := out[s.Req].layers[s.Name]
		lt.d += self[i]
		lt.work += s.Work
		out[s.Req].layers[s.Name] = lt
	}
	for i := range out {
		out[i].inProcess += longestItem[i]
	}
	return out
}

// writeSpans dumps every span as one JSON line per span.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Conn int `json:"conn"`
		span
	}
	for c, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(line{Conn: c, span: s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// figure is one per-layer metric: its value for a request, and whether
// the request reaches that layer at all.
type figure struct {
	name, unit string
	value      func(r requestLayers) (float64, bool)
}

// spanFigure is a layer's summed self time in ms or us; the kernel
// layers, in ns, are per element processed.
func spanFigure(name, spanName, unit string) figure {
	return figure{name, unit, func(r requestLayers) (float64, bool) {
		if unit == "ns" {
			return perElement(r, spanName)
		}
		lt, ok := r.layers[spanName]
		if unit == "ms" {
			return float64(lt.d) / 1e6, ok
		}
		return float64(lt.d) / 1e3, ok
	}}
}

// perElement is a kernel span's nanoseconds per element in one request.
func perElement(r requestLayers, spanName string) (float64, bool) {
	lt, ok := r.layers[spanName]
	if !ok || lt.work == 0 {
		return 0, false
	}
	return float64(lt.d) / float64(lt.work), true
}

var figures = []figure{
	spanFigure("wire.spec_decode_us", "wire.spec_decode", "us"),
	spanFigure("wire.validate_us", "wire.validate", "us"),
	spanFigure("wire.cache_key_us", "wire.cache_key", "us"),
	spanFigure("cache.get_us", "cache.get", "us"),
	spanFigure("wire.reframe_us", "wire.reframe", "us"),
	spanFigure("wire.report_decode_ms", "wire.report_decode", "ms"),
	spanFigure("wire.digest_ms", "wire.digest", "ms"),
	spanFigure("client.decode_ms", "client.decode", "ms"),
	spanFigure("gen.build_ms", "gen.build", "ms"),
	spanFigure("protocol.build_us", "protocol.build", "us"),
	spanFigure("engine.broadcast_ms", "engine.broadcast", "ms"),
	spanFigure("engine.decode_ms", "engine.decode", "ms"),
	spanFigure("faults.run_ms", "faults.run", "ms"),
	spanFigure("wire.encode_ms", "wire.encode", "ms"),
	spanFigure("cache.put_us", "cache.put", "us"),
	spanFigure("agm.sketch_ms", "agm.sketch", "ms"),
	spanFigure("l0.update_block_ns", "l0.update_block", "ns"),
	spanFigure("l0.update_ns", "l0.update", "ns"),
	spanFigure("l0.write_lane_ns", "l0.write_lane", "ns"),
	spanFigure("field.reduce_block_ns", "field.reduce_block", "ns"),
	spanFigure("field.pow_block_ns", "field.pow_block", "ns"),
	spanFigure("hashing.level_block_ns", "hashing.level_block", "ns"),
	{"server.http_ms", "ms", func(r requestLayers) (float64, bool) {
		return float64(r.info.Latency-r.inProcess) / 1e6, true
	}},
	{"engine.overhead_ms", "ms", func(r requestLayers) (float64, bool) {
		b, ok1 := r.layers["engine.broadcast"]
		s, ok2 := r.layers["agm.sketch"]
		return float64(b.d-s.d) / 1e6, ok1 && ok2
	}},
	{"l0.scatter_ns", "ns", func(r requestLayers) (float64, bool) {
		ub, ok1 := perElement(r, "l0.update_block")
		rd, ok2 := perElement(r, "field.reduce_block")
		pw, ok3 := perElement(r, "field.pow_block")
		lv, ok4 := perElement(r, "hashing.level_block")
		return ub - rd - pw - lv, ok1 && ok2 && ok3 && ok4
	}},
	{"wire.response_kb", "KB", func(r requestLayers) (float64, bool) {
		return float64(r.info.Bytes) / 1024, true
	}},
}

// values collects f over the kept requests that reach its layer.
func (f figure) values(reqs []requestLayers, keep func(reqInfo) bool) []float64 {
	var xs []float64
	for _, r := range reqs {
		if keep(r.info) {
			if v, ok := f.value(r); ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

// layerFigures computes every per-layer metric as the median over the
// kept requests; a layer none of them reaches reports 0.
func layerFigures(reqs []requestLayers, keep func(reqInfo) bool) map[string]metric {
	out := make(map[string]metric)
	for _, f := range figures {
		v := 0.0
		if xs := f.values(reqs, keep); len(xs) > 0 {
			v = median(xs)
		}
		out[f.name] = metric{Value: v, Unit: f.unit}
	}
	return out
}

// layerTable renders per-layer p50/p90 for hits and misses separately
// (warm-up misses included), the table the benchmark's README commits.
func layerTable(w *workload, reqs []requestLayers) string {
	var b strings.Builder
	for _, hit := range []bool{true, false} {
		keep := func(ri reqInfo) bool { return ri.Hit == hit }
		n := 0
		for _, r := range reqs {
			if keep(r.info) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		kind := map[bool]string{true: "hits", false: "misses"}[hit]
		fmt.Fprintf(&b, "%s, %s (%d requests)\n| layer | unit | p50 | p90 |\n|---|---|---|---|\n", w.name, kind, n)
		for _, f := range figures {
			if xs := f.values(reqs, keep); len(xs) > 0 {
				fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g |\n", f.name, f.unit, percentile(xs, 50), percentile(xs, 90))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// exactCounts takes the paper's cost measure and the feedback spend over
// the workload's fixed leading requests, executed in-process, plus the
// kernel probe's update count over the same requests' graphs. None of
// them depends on timing or on how many requests a run completes.
//
// l0.updates counts the probe's input, computed from the generated
// graphs, not updates the program made: the program keeps no such count.
// It moves only if the graphs or the probe change. A change in how many
// updates the AGM code itself makes shows in engine.player_bits instead.
func exactCounts(ctx context.Context, w *workload, p plan) (map[string]metric, error) {
	var (
		maxBits          int
		player, feedback int64
		updates          int
	)
	for _, r := range w.fixedRequests(p) {
		var fps []fingerprint
		if w.batch {
			fps = referenceBatch(ctx, r)
			for _, spec := range r {
				g, err := wire.BuildGraph(spec.Graph)
				if err != nil {
					return nil, err
				}
				updates += probeUpdates(core.Views(g))
			}
		} else {
			fps = referenceRuns(ctx, r)
		}
		for _, fp := range fps {
			if fp.Err != "" {
				return nil, errors.New(fp.Err)
			}
			maxBits = max(maxBits, fp.MaxBits)
			player += fp.PlayerBits
			feedback += fp.FeedbackBits
		}
	}
	return map[string]metric{
		"engine.max_message_bits": {Value: float64(maxBits), Unit: "bits"},
		"engine.player_bits":      {Value: float64(player), Unit: "bits"},
		"engine.feedback_bits":    {Value: float64(feedback), Unit: "bits"},
		"l0.updates":              {Value: float64(updates), Unit: "count"},
	}, nil
}
