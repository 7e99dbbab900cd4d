package cluster

// The coordinator is the cluster's front door: an http.Handler serving
// the same /v1 surface as a single refereed daemon (internal/server),
// so every existing client — internal/client, sketchlab -remote,
// cmd/loadgen — can point at a coordinator without knowing it is one.
//
// Placement: each spec's content address (wire.SpecCacheKey) hashes
// onto the ring; the owning backend executes it. Identical specs
// always land on the same backend, which concentrates each backend's
// result cache on its shard of the spec space.
//
// Failover: the determinism contract makes every backend perfectly
// substitutable — a spec yields byte-identical results anywhere — so
// when the owner fails the coordinator simply walks the key's ring
// sequence to the next live backend and marks the failed one down
// until a health probe revives it. Deterministic failures (a 400 for
// a bad spec, a 500 for a protocol failing mid-run) are NOT failed
// over: every backend would answer identically, so the first answer
// is the answer.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// Config carries the coordinator's knobs.
type Config struct {
	// Backends are the refereed daemon addresses (host:port, or full
	// http:// base URLs). Required, at least one.
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring.
	// 0 means DefaultReplicas.
	Replicas int
	// HealthInterval is the period of the background health probe
	// loop run by Serve. 0 means 2s.
	HealthInterval time.Duration
	// ProbeTimeout bounds one health or stats probe. 0 means 2s.
	ProbeTimeout time.Duration
	// Retries is the per-backend client retry budget per dispatch.
	// Small on purpose — the cluster-level answer to a struggling
	// backend is failover, not patience. 0 means 1; negative disables.
	Retries int
	// Backoff is the per-backend client's initial retry delay. 0 means
	// 50ms.
	Backoff time.Duration
	// Timeout bounds one dispatched request end to end. 0 means two
	// minutes (a batch may carry many specs).
	Timeout time.Duration
	// Logger receives dispatch and membership records. nil means
	// slog.Default().
	Logger *slog.Logger
}

// backend is one refereed daemon plus its dispatch bookkeeping.
type backend struct {
	addr       string
	c          *client.Client
	alive      atomic.Bool
	dispatched atomic.Int64 // specs answered (run = 1, batch = len)
	failures   atomic.Int64 // dispatch failures that triggered failover
}

// Coordinator shards specs across refereed backends. It is an
// http.Handler; use Serve for a managed listener with a background
// health loop.
type Coordinator struct {
	cfg      Config
	log      *slog.Logger
	ring     *Ring
	backends map[string]*backend
	mux      *http.ServeMux
	started  time.Time

	runs       atomic.Int64
	batchSpecs atomic.Int64
	failovers  atomic.Int64
}

// baseURL normalizes a backend address to a client base URL.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// New builds a Coordinator. Backends start presumed alive — the first
// failed dispatch or health probe corrects the optimism.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	co := &Coordinator{
		cfg:      cfg,
		log:      cfg.Logger,
		ring:     NewRing(cfg.Backends, cfg.Replicas),
		backends: make(map[string]*backend, len(cfg.Backends)),
		mux:      http.NewServeMux(),
		started:  time.Now(),
	}
	for _, addr := range cfg.Backends {
		if _, dup := co.backends[addr]; dup {
			return nil, fmt.Errorf("cluster: backend %s configured twice", addr)
		}
		b := &backend{
			addr: addr,
			c: client.New(client.Config{
				BaseURL: baseURL(addr),
				Retries: cfg.Retries,
				Backoff: cfg.Backoff,
			}),
		}
		b.alive.Store(true)
		co.backends[addr] = b
	}
	co.mux.HandleFunc("POST /v1/run", co.handleRun)
	co.mux.HandleFunc("POST /v1/batch", co.handleBatch)
	co.mux.HandleFunc("GET /v1/healthz", co.handleHealthz)
	co.mux.HandleFunc("GET /v1/stats", co.handleStats)
	return co, nil
}

// markDown flips a backend to dead (idempotently) and logs the
// transition.
func (co *Coordinator) markDown(b *backend, cause error) {
	b.failures.Add(1)
	if b.alive.CompareAndSwap(true, false) {
		co.log.Warn("backend down", slog.String("backend", b.addr), slog.Any("cause", cause))
	}
}

// markUp flips a backend to alive (idempotently) and logs the
// transition.
func (co *Coordinator) markUp(b *backend) {
	if b.alive.CompareAndSwap(false, true) {
		co.log.Info("backend up", slog.String("backend", b.addr))
	}
}

// CheckBackends probes every backend's /v1/healthz once, concurrently,
// and updates aliveness. A backend that answers with a mismatched wire
// version is treated as down — routing to it could only produce frame
// errors.
func (co *Coordinator) CheckBackends(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range co.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, co.cfg.ProbeTimeout)
			defer cancel()
			if _, err := b.c.Health(pctx); err != nil {
				co.markDown(b, err)
			} else {
				co.markUp(b)
			}
		}(b)
	}
	wg.Wait()
}

// sequenceFor returns the failover order of a spec.
func (co *Coordinator) sequenceFor(spec wire.RunSpec) []*backend {
	seq := co.ring.Sequence([]byte(wire.SpecCacheKey(spec)))
	out := make([]*backend, len(seq))
	for i, addr := range seq {
		out[i] = co.backends[addr]
	}
	return out
}

// firstAlive returns the first live backend in a spec's sequence, or
// nil when the whole cluster is marked down.
func (co *Coordinator) firstAlive(spec wire.RunSpec) *backend {
	for _, b := range co.sequenceFor(spec) {
		if b.alive.Load() {
			return b
		}
	}
	return nil
}

// errAllBackendsDown is returned when a dispatch exhausted the ring.
var errAllBackendsDown = errors.New("cluster: no live backend")

// Run dispatches one spec to its owning backend, failing over along
// the key's ring sequence. Two passes: live backends first, then — if
// the whole sequence is marked down — the dead ones too, since a
// backend may have recovered between health probes.
func (co *Coordinator) Run(ctx context.Context, spec wire.RunSpec) (*wire.RunReport, error) {
	_, report, err := co.run(ctx, spec)
	return report, err
}

// run is Run that also returns the serving backend's response frame.
// The backend's report is decoded only to validate it, so a malformed
// frame fails over like a dead backend.
func (co *Coordinator) run(ctx context.Context, spec wire.RunSpec) ([]byte, *wire.RunReport, error) {
	co.runs.Add(1)
	seq := co.sequenceFor(spec)
	// Snapshot aliveness once and try every backend at most once:
	// live ones in ring order first, then — since health info may be
	// stale — the dead-marked ones as a last resort.
	alive := make(map[*backend]bool, len(seq))
	for _, b := range seq {
		alive[b] = b.alive.Load()
	}
	order := make([]*backend, 0, len(seq))
	for _, b := range seq {
		if alive[b] {
			order = append(order, b)
		}
	}
	for _, b := range seq {
		if !alive[b] {
			order = append(order, b)
		}
	}
	var lastErr error
	for attempt, b := range order {
		if attempt > 0 {
			co.failovers.Add(1)
		}
		frame, report, err := b.c.RunFrame(ctx, spec)
		if err == nil {
			b.dispatched.Add(1)
			co.markUp(b)
			return frame, report, nil
		}
		lastErr = err
		var se *client.StatusError
		if errors.As(err, &se) && !client.Retryable(se.Code) {
			// Deterministic failure: every backend answers the same.
			return nil, nil, err
		}
		co.markDown(b, err)
		if ctx.Err() != nil {
			return nil, nil, lastErr
		}
	}
	if lastErr == nil {
		lastErr = errAllBackendsDown
	}
	return nil, nil, fmt.Errorf("%w (last: %v)", errAllBackendsDown, lastErr)
}

// RunBatch dispatches a batch: items shard to their owning backends
// and the sub-batches run concurrently. A failed sub-batch marks its
// backend down and its items redistribute across survivors on the
// next round, so a backend dying mid-batch costs its in-flight items
// a re-execution somewhere else, never the batch. Items come back in
// spec order, exactly like a single daemon's /v1/batch.
func (co *Coordinator) RunBatch(ctx context.Context, specs []wire.RunSpec) []wire.BatchItem {
	co.batchSpecs.Add(int64(len(specs)))
	items := make([]wire.BatchItem, len(specs))
	pending := make([]int, len(specs))
	for i := range pending {
		pending[i] = i
	}
	// Each round either delivers items or kills at least one backend,
	// so backends+1 rounds always suffice.
	for round := 0; round <= len(co.backends) && len(pending) > 0 && ctx.Err() == nil; round++ {
		groups := make(map[*backend][]int)
		var unassigned []int
		for _, i := range pending {
			if b := co.firstAlive(specs[i]); b != nil {
				groups[b] = append(groups[b], i)
			} else {
				unassigned = append(unassigned, i)
			}
		}
		if len(groups) == 0 {
			pending = unassigned
			break
		}
		var (
			mu   sync.Mutex
			next []int
		)
		next = append(next, unassigned...)
		var wg sync.WaitGroup
		for b, idxs := range groups {
			wg.Add(1)
			go func(b *backend, idxs []int) {
				defer wg.Done()
				sub := make([]wire.RunSpec, len(idxs))
				for j, i := range idxs {
					sub[j] = specs[i]
				}
				res, err := b.c.RunBatch(ctx, sub)
				mu.Lock()
				defer mu.Unlock()
				var se *client.StatusError
				if err != nil && errors.As(err, &se) && !client.Retryable(se.Code) {
					// Deterministic rejection of the whole sub-batch
					// (e.g. a frame the daemon cannot decode): delivered
					// as per-item errors, not failed over.
					for _, i := range idxs {
						items[i] = wire.BatchItem{Label: specs[i].Label, Err: err.Error()}
					}
					return
				}
				if err != nil || len(res) != len(idxs) {
					if err == nil {
						err = fmt.Errorf("cluster: backend returned %d items for %d specs", len(res), len(idxs))
					}
					co.markDown(b, err)
					co.failovers.Add(int64(len(idxs)))
					next = append(next, idxs...)
					return
				}
				b.dispatched.Add(int64(len(idxs)))
				for j, i := range idxs {
					items[i] = res[j]
				}
			}(b, idxs)
		}
		wg.Wait()
		pending = next
	}
	for _, i := range pending {
		items[i] = wire.BatchItem{Label: specs[i].Label, Err: errAllBackendsDown.Error()}
	}
	return items
}

// --- HTTP surface ---

func fail(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// dispatchStatus maps a dispatch error onto the coordinator's own
// response status. Backend StatusErrors pass through (the coordinator
// is a router, not a translator); transport-level exhaustion is a 502.
func dispatchStatus(err error) (int, string) {
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Code, se.Body
	}
	return http.StatusBadGateway, err.Error()
}

// ServeHTTP dispatches to the v1 endpoints and logs every request.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	co.mux.ServeHTTP(w, r)
	co.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Duration("elapsed", time.Since(start)),
		slog.String("remote", r.RemoteAddr),
	)
}

func (co *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		fail(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	spec, err := wire.DecodeRunSpec(body)
	if err != nil {
		fail(w, http.StatusBadRequest, "decode spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		fail(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.Timeout)
	defer cancel()
	frame, report, err := co.run(ctx, spec)
	if err != nil {
		status, body := dispatchStatus(err)
		fail(w, status, "%s", body)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, wire.ReportToJSON(report, false))
		return
	}
	// The backend's frame already is the response: the determinism
	// contract makes it the bytes any backend would send.
	writeFrame(w, frame)
}

func (co *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		fail(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	specs, err := wire.DecodeBatchSpec(body)
	if err != nil {
		fail(w, http.StatusBadRequest, "decode batch: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.Timeout)
	defer cancel()
	items := co.RunBatch(ctx, specs)
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, wire.BatchToJSON(items))
		return
	}
	writeFrame(w, wire.EncodeBatchReport(items))
}

// BackendInfo is one backend's row in healthz and stats responses.
type BackendInfo struct {
	Addr       string `json:"addr"`
	Alive      bool   `json:"alive"`
	Dispatched int64  `json:"dispatched"`
	Failures   int64  `json:"failures"`
}

func (co *Coordinator) backendInfos() (infos []BackendInfo, aliveCount int) {
	for _, addr := range co.ring.Backends() {
		b := co.backends[addr]
		alive := b.alive.Load()
		if alive {
			aliveCount++
		}
		infos = append(infos, BackendInfo{
			Addr:       b.addr,
			Alive:      alive,
			Dispatched: b.dispatched.Load(),
			Failures:   b.failures.Load(),
		})
	}
	return infos, aliveCount
}

// healthInfo mirrors the daemon healthz body (so internal/client's
// wire-version check works against a coordinator) plus the cluster
// membership view.
type healthInfo struct {
	Status      string        `json:"status"`
	WireVersion int           `json:"wire_version"`
	Protocols   []string      `json:"protocols"`
	Role        string        `json:"role"`
	Backends    []BackendInfo `json:"backends"`
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	infos, alive := co.backendInfos()
	status := "ok"
	code := http.StatusOK
	if alive == 0 {
		// Still answers (the coordinator itself is up) but flags that
		// dispatches will fail until a backend returns.
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(healthInfo{
		Status:      status,
		WireVersion: wire.Version,
		Protocols:   wire.Protocols(),
		Role:        "coordinator",
		Backends:    infos,
	})
}

// StatsInfo is the coordinator's GET /v1/stats body. Cache aggregates
// the live backends' result-cache counters, under the same "cache" key
// a single daemon serves, so loadgen reads either transparently.
type StatsInfo struct {
	Status        string            `json:"status"`
	Role          string            `json:"role"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Runs          int64             `json:"runs"`
	BatchSpecs    int64             `json:"batch_specs"`
	Failovers     int64             `json:"failovers"`
	Backends      []BackendInfo     `json:"backends"`
	Cache         client.CacheStats `json:"cache"`
}

// Stats snapshots the coordinator counters and aggregates cache
// counters from every live backend.
func (co *Coordinator) Stats(ctx context.Context) StatsInfo {
	infos, _ := co.backendInfos()
	info := StatsInfo{
		Status:        "ok",
		Role:          "coordinator",
		UptimeSeconds: time.Since(co.started).Seconds(),
		Runs:          co.runs.Load(),
		BatchSpecs:    co.batchSpecs.Load(),
		Failovers:     co.failovers.Load(),
		Backends:      infos,
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range co.backends {
		if !b.alive.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, co.cfg.ProbeTimeout)
			defer cancel()
			st, err := b.c.Stats(pctx)
			if err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if st.Cache.Enabled {
				info.Cache.Enabled = true
				info.Cache.Hits += st.Cache.Hits
				info.Cache.Misses += st.Cache.Misses
				info.Cache.Evictions += st.Cache.Evictions
				info.Cache.Entries += st.Cache.Entries
				info.Cache.Bytes += st.Cache.Bytes
				info.Cache.MaxBytes += st.Cache.MaxBytes
			}
		}(b)
	}
	wg.Wait()
	if total := info.Cache.Hits + info.Cache.Misses; total > 0 {
		info.Cache.HitRate = float64(info.Cache.Hits) / float64(total)
	}
	return info
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, co.Stats(r.Context()))
}

// writeFrame writes a binary response under a declared Content-Length,
// as the daemon does, so clients read it into one buffer.
func writeFrame(w http.ResponseWriter, frame []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Serve runs the coordinator on ln until ctx is canceled: the HTTP
// front end plus the background health loop (one immediate probe pass,
// then one per HealthInterval). Shutdown mirrors server.Serve —
// listener closes immediately, in-flight dispatches get grace.
func (co *Coordinator) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	if grace <= 0 {
		grace = 5 * time.Second
	}
	loopCtx, stopLoop := context.WithCancel(ctx)
	defer stopLoop()
	go func() {
		co.CheckBackends(loopCtx)
		t := time.NewTicker(co.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-loopCtx.Done():
				return
			case <-t.C:
				co.CheckBackends(loopCtx)
			}
		}
	}()
	srv := &http.Server{
		Handler:           co,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	co.log.Info("coordinator shutting down", slog.Duration("grace", grace))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if err != nil {
		srv.Close()
	}
	<-errc
	return err
}
