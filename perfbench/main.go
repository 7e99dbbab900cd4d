// Command perfbench is the referee service's benchmark. It launches the
// refereed daemon with its result cache on (five times per timed run,
// each serving a slice of the timed phase), drives it with a closed loop
// of at most two connections (nproc on the 2-core target), checks every
// reply, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload hit-large --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 a
// separate traced run replays each request in-process and reports the
// per-layer breakdown instead. README.md explains the workloads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/wire"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	refereed string
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: hit-small, hit-large, miss-mixed or sketch-batch")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; it sets every spec the run sends")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the timed run")
	flag.StringVar(&o.refereed, "refereed", "", "path to the refereed binary")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the daemon log and the traced run's span dump")
	flag.Parse()
	o.trace = trace == 1
	if o.refereed == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -refereed, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Every run must end well inside three minutes, daemons included.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o, w)
	stop()
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// references holds what hits are checked against, and the traced run's
// in-process result cache.
type references struct {
	working [][]byte   // the hit-pass warm-up reply of each working-set spec
	lru     *cache.LRU // nil unless tracing
}

// hit records (warm-up hit pass) or checks (timed phase) a hit reply.
// A reply byte-identical to the recorded one passes at once; any other
// is fingerprinted for the semantic comparison after the phase.
func (r *references) hit(i int, ph phase, body []byte, rep *wire.RunReport) (deferred bool, check []fingerprint) {
	n := len(r.working)
	if ph == phaseWarm {
		if i >= n {
			r.working[i-n] = bytes.Clone(body)
		}
		return false, nil
	}
	if bytes.Equal(body, r.working[i%n]) {
		return false, nil
	}
	return true, []fingerprint{reportFingerprint(rep)}
}

// warmUp sends the set-up requests. Hit workloads send their working set
// twice, the second pass only after the first has been cached.
func warmUp(ctx context.Context, w *workload, p plan, conns []*conn, refs *references) error {
	passes := [][2]int{{0, len(p.warm)}}
	if w.hits {
		n := len(p.working)
		passes = [][2]int{{0, n}, {n, 2 * n}}
	}
	for _, ps := range passes {
		samples, _ := pump(ctx, conns, ps[0], ps[1]-ps[0], time.Time{}, func(c *conn, i int) sample {
			return exchange(ctx, w, c, p.warm[i], i, phaseWarm, refs)
		})
		for _, s := range samples {
			if s.err != "" {
				return fmt.Errorf("set-up request %d: %s", s.req, s.err)
			}
		}
	}
	return ctx.Err()
}

// segment is one daemon's share of a run: its set-up, then its slice of
// the timed phase. Spreading the timed phase over several daemons keeps
// one process's heap and scheduling luck from setting a run's figures.
type segment struct {
	setup   time.Duration
	samples []sample
	elapsed time.Duration
	cache   cacheDelta // over the timed slice
	rss     float64
	refs    *references
	conns   []*conn
}

// runSegment launches a daemon, warms it up, drives timed requests from
// index first until the deadline, reads its counters and stops it.
func runSegment(ctx context.Context, o options, w *workload, p plan, first int, length time.Duration) (*segment, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, o.refereed, w.cacheBytes, filepath.Join(o.out, "refereed.log"))
	if err != nil {
		return nil, err
	}
	defer d.stop()
	sg := &segment{
		conns: newConns(d.url, w.conns, o.trace),
		refs:  &references{working: make([][]byte, len(p.working))},
	}
	if o.trace {
		sg.refs.lru = cache.New(w.cacheBytes)
	}
	if err := warmUp(ctx, w, p, sg.conns, sg.refs); err != nil {
		return nil, fmt.Errorf("set-up: %w (daemon log: %s)", err, d.logTail())
	}
	sg.setup = time.Since(t0)

	before, err := d.cacheCounters(ctx)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(length)
	sg.samples, sg.elapsed = pump(ctx, sg.conns, first, -1, deadline, func(c *conn, i int) sample {
		return exchange(ctx, w, c, p.next(i), i, phaseTimed, sg.refs)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := d.cacheCounters(ctx)
	if err != nil {
		return nil, err
	}
	if sg.rss, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	sg.cache = counterDelta(before, after)
	return sg, nil
}

// cacheDelta is the change in a daemon's result-cache counters.
type cacheDelta struct{ hits, lookups, evictions int64 }

func counterDelta(before, after client.CacheStats) cacheDelta {
	hits := after.Hits - before.Hits
	return cacheDelta{
		hits:      hits,
		lookups:   hits + after.Misses - before.Misses,
		evictions: after.Evictions - before.Evictions,
	}
}

func (d cacheDelta) add(e cacheDelta) cacheDelta {
	return cacheDelta{d.hits + e.hits, d.lookups + e.lookups, d.evictions + e.evictions}
}

func (d cacheDelta) ratio() float64 {
	if d.lookups == 0 {
		return 0
	}
	return float64(d.hits) / float64(d.lookups)
}

// cacheFits reports whether a timed phase that sent specs specs used the
// cache as workload w claims: the daemon looked every spec up (one
// lookup per /v1/run request or batch item), and every lookup hit (hit
// workloads) or none did and the full cache evicted (miss workloads).
func (w *workload) cacheFits(d cacheDelta, specs int64) bool {
	if d.lookups == 0 || d.lookups != specs {
		return false
	}
	if w.hits {
		return d.hits == d.lookups
	}
	return d.hits == 0 && d.evictions > 0
}

// daemonsPerRun is how many daemons a timed run launches. Each is warmed
// up and then serves an equal slice of the timed phase; setup_s and
// peak_rss_mb are medians over them. The traced run launches one.
const daemonsPerRun = 5

func run(ctx context.Context, o options, w *workload) (*result, error) {
	p := w.plan(o.seed)
	n := daemonsPerRun
	if o.trace {
		n = 1
	}
	var segs []*segment
	total := time.Duration(o.seconds) * time.Second
	next := 0
	for k := 0; k < n; k++ {
		sg, err := runSegment(ctx, o, w, p, next, total/time.Duration(n))
		if err != nil {
			return nil, err
		}
		segs = append(segs, sg)
		next += len(sg.samples)
	}

	// Everything below runs after the timed phase, with no daemon left.
	var working []fingerprint
	if w.hits {
		working = referenceRuns(ctx, p.working)
	}
	res := &result{Metrics: make(map[string]metric)}
	var (
		lat                 []float64
		setups, rss, segRPS []float64
		elapsed             time.Duration
		cd                  cacheDelta
		specs               int64 // specs in the timed requests sent
	)
	for _, sg := range segs {
		problems := verify(ctx, w, p, working, sg.refs, sg.samples)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, s := range sg.samples {
			res.Attempted++
			specs += int64(len(p.next(s.req)))
			if problems[i] != "" {
				res.Failed++
				if res.Failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: request %d failed: %s\n", s.req, problems[i])
				}
				continue
			}
			lat = append(lat, float64(s.latency)/1e6)
		}
		setups = append(setups, sg.setup.Seconds())
		rss = append(rss, sg.rss)
		segRPS = append(segRPS, float64(len(sg.samples))/sg.elapsed.Seconds())
		elapsed += sg.elapsed
		cd = cd.add(sg.cache)
	}
	// The workload is only what it claims to be if its timed phase used
	// the cache as the workload says.
	cacheOK := w.cacheFits(cd, specs)
	if !cacheOK {
		fmt.Fprintf(os.Stderr, "perfbench: timed-phase cache hit ratio %v over %d lookups for %d specs with %d evictions is not the workload's\n", cd.ratio(), cd.lookups, specs, cd.evictions)
	}
	ok := len(lat)
	if ok == 0 {
		return nil, fmt.Errorf("none of %d timed requests succeeded", res.Attempted)
	}
	throughput := float64(ok) / elapsed.Seconds()
	p50, p90 := percentile(lat, 50), percentile(lat, 90)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests (%d failed) over %d daemons in %.2fs; p90 leaves %d samples beyond it (highest percentile with >= %d beyond: p%g); cache hit ratio %v over %d lookups, %d evictions; per daemon: set-up %.3v s, throughput %.4v 1/s, peak RSS %.4v MB\n",
		w.name, o.seed, res.Attempted, res.Failed, len(segs), elapsed.Seconds(), beyond(ok, 90), minBeyond,
		highestSupported(ok, []float64{90, 95, 99, 99.9}), cd.ratio(), cd.lookups, cd.evictions, setups, segRPS, rss)

	if !o.trace {
		res.Metrics["throughput_rps"] = metric{throughput, "1/s"}
		res.Metrics["latency_p50_ms"] = metric{p50, "ms"}
		res.Metrics["latency_p90_ms"] = metric{p90, "ms"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
		res.Correct = res.Failed == 0 && cacheOK
		return res, nil
	}

	var reqs []requestLayers
	var replayErrs []string
	var tracers []*tracer
	for _, c := range segs[0].conns {
		tracers = append(tracers, c.tr)
		reqs = append(reqs, c.tr.breakdown()...)
		replayErrs = append(replayErrs, c.tr.errs...)
	}
	for _, e := range replayErrs {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	res.Metrics = layerFigures(reqs, func(ri reqInfo) bool { return ri.Phase == phaseTimed })
	counts, err := exactCounts(ctx, w, p)
	if err != nil {
		return nil, fmt.Errorf("exact counts: %w", err)
	}
	for k, v := range counts {
		res.Metrics[k] = v
	}
	res.Metrics["cache.hit_ratio"] = metric{cd.ratio(), "ratio"}
	res.Metrics["cache.lookups"] = metric{float64(cd.lookups), "count"}
	res.Metrics["cache.evictions"] = metric{float64(cd.evictions), "count"}
	res.Metrics["trace.throughput_rps"] = metric{throughput, "1/s"}
	res.Metrics["trace.latency_p50_ms"] = metric{p50, "ms"}
	fmt.Fprint(os.Stderr, layerTable(w, reqs))
	// One dump per workload: a later traced run replaces it.
	path := filepath.Join(o.out, "spans-"+w.name+".jsonl")
	if err := writeSpans(path, tracers); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Correct = res.Failed == 0 && cacheOK && len(replayErrs) == 0
	return res, nil
}

// verify runs the output check over one daemon's timed samples and
// returns, per sample, why it failed ("" for a pass). working holds the
// in-process references of a hit workload's working set.
func verify(ctx context.Context, w *workload, p plan, working []fingerprint, refs *references, samples []sample) []string {
	problems := make([]string, len(samples))
	for i, s := range samples {
		problems[i] = s.err
	}
	switch {
	case w.hits:
		// The recorded replies must themselves be right.
		got := make([]fingerprint, len(refs.working))
		for j, frame := range refs.working {
			got[j] = checkFrame(frame)
		}
		for i, s := range samples {
			if problems[i] != "" {
				continue
			}
			j := s.req % len(got)
			if m := mismatch(got[j], working[j]); m != "" {
				problems[i] = "warm-up reply: " + m
			} else if s.deferred {
				problems[i] = mismatch(s.check[0], got[j])
			}
		}
	case w.batch:
		for i, s := range samples {
			if problems[i] != "" {
				continue
			}
			want := referenceBatch(ctx, p.next(s.req))
			for k := range want {
				if m := mismatch(s.check[k], want[k]); m != "" {
					problems[i] = fmt.Sprintf("item %d: %s", k, m)
					break
				}
			}
		}
	default:
		var idx []int
		var specs []wire.RunSpec
		for i, s := range samples {
			if problems[i] == "" {
				idx = append(idx, i)
				specs = append(specs, p.next(s.req)[0])
			}
		}
		want := referenceRuns(ctx, specs)
		for k, i := range idx {
			problems[i] = mismatch(samples[i].check[0], want[k])
		}
	}
	return problems
}
