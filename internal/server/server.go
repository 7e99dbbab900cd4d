// Package server is the refereed daemon: an HTTP front end that accepts
// wire.RunSpec frames, executes them through the in-process engine, and
// returns wire.RunReport frames. The daemon adds no semantics of its own
// — by the engine's determinism contract and the wire codec's
// canonicality, a spec dispatched here yields the byte-identical
// transcript a local engine.Run would, which the parity tests and the CI
// smoke sweep check digest-for-digest.
//
// Endpoints:
//
//	POST /v1/run     one RunSpec frame in, one RunReport frame out
//	                 (JSON report, sans transcript, under Accept: application/json)
//	POST /v1/batch   one batch-spec frame in, one batch-report frame out
//	                 (stats and outcomes only — no transcripts)
//	GET  /v1/healthz liveness plus the protocol registry
//	GET  /v1/stats   operational counters: result-cache hits, misses,
//	                 evictions, occupancy, and uptime
//
// Operational behavior lives here, deliberately apart from execution:
// a semaphore bounds simultaneous executions (waiters queue until their
// QueueTimeout expires — shed with 429 + Retry-After — or the request
// context dies), every execution runs under a per-request timeout, and
// each request emits one structured log line.
//
// When Config.CacheBytes is set, results are memoized in an LRU keyed by
// the canonical spec encoding (wire.SpecCacheKey), which by the
// determinism contract is a content address for the result, so a hit
// serves stored bytes that are byte-identical to a fresh execution's
// response. A /v1/run entry keeps the transcript's digest beside the
// result, so a hit writes a small frame head and then the stored bytes
// themselves, after a decode of the stats and outcome prefix: it copies
// no payload, rebuilds no transcript and hashes nothing.
//
// Every binary response declares its Content-Length, so net/http sends
// it unchunked and a client can read it into one buffer of that size.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/wire"
)

// maxBodyBytes bounds request bodies. Specs are a few hundred bytes;
// even a large batch stays far under this.
const maxBodyBytes = 1 << 20

// Config carries the daemon's operational knobs.
type Config struct {
	// MaxConcurrent bounds simultaneous spec executions; requests beyond
	// it queue until a slot frees or their context dies. 0 means
	// GOMAXPROCS.
	MaxConcurrent int
	// Timeout is the per-request execution budget. 0 means one minute.
	Timeout time.Duration
	// QueueTimeout bounds how long a request may wait for an execution
	// slot. A request still queued when it expires is shed with 429 and
	// a Retry-After hint, telling well-behaved clients (internal/client
	// honors the header) to come back rather than pile onto a saturated
	// daemon. 0 means wait as long as the request context allows.
	QueueTimeout time.Duration
	// CacheBytes is the result-cache byte budget. When > 0, successful
	// executions are memoized under their spec's content address and
	// identical specs are served from memory without re-executing.
	// 0 disables memoization.
	CacheBytes int64
	// Logger receives one structured record per request. nil means
	// slog.Default().
	Logger *slog.Logger
}

// Cached result values are tagged with their richness: full entries
// carry the transcript's digest and stats+outcome+transcript (populated
// by /v1/run and servable everywhere), summary entries carry
// stats+outcome only (populated by /v1/batch, where transcripts never
// materialize):
//
//	full:    cacheFull, digest (wire.DigestLen bytes), result payload
//	summary: cacheSummary, summary payload
const (
	cacheSummary byte = 0
	cacheFull    byte = 1
)

// fullHead is the length of a full cache value's head: the tag and the
// digest.
const fullHead = 1 + wire.DigestLen

// entryResult returns the result payload of a cache value of either
// richness, or nil when the value is too short to hold one.
func entryResult(val []byte) []byte {
	if len(val) == 0 {
		return nil
	}
	head := 1
	if val[0] == cacheFull {
		head = fullHead
	}
	if len(val) < head {
		return nil
	}
	return val[head:]
}

// Server handles the referee service endpoints. It is an http.Handler;
// use Serve for a managed listener with graceful shutdown.
type Server struct {
	cfg     Config
	log     *slog.Logger
	sem     chan struct{}
	mux     *http.ServeMux
	results *cache.LRU // nil when memoization is disabled
	started time.Time
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if cfg.CacheBytes > 0 {
		s.results = cache.New(cfg.CacheBytes)
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// statusWriter records the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP dispatches to the v1 endpoints and logs every request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("elapsed", time.Since(start)),
		slog.String("remote", r.RemoteAddr),
	)
}

// acquire claims an execution slot, queueing until one frees, the
// queue timeout expires, or ctx dies. On success it returns the
// release func and status 0; otherwise release is nil and status is
// the HTTP code to shed with: 429 (queue timeout — the daemon is
// saturated, retry later) or 503 (the request died while queued).
func (s *Server) acquire(ctx context.Context) (release func(), status int) {
	var timeout <-chan time.Time
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	case <-timeout:
		return nil, http.StatusTooManyRequests
	case <-ctx.Done():
		return nil, http.StatusServiceUnavailable
	}
}

// shed writes the queue-rejection response for a non-zero acquire
// status. A 429 carries Retry-After: the queue just proved itself full
// for a whole QueueTimeout, so a comparable wait (at least a second)
// is the honest hint.
func (s *Server) shed(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests {
		secs := int(s.cfg.QueueTimeout / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		fail(w, status, "execution queue full for %v; retry after %ds", s.cfg.QueueTimeout, secs)
		return
	}
	fail(w, status, "canceled while queued for an execution slot")
}

// fail writes a plain-text error response.
func fail(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// readBody drains a request body under the size cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

// wantsJSON reports whether the client asked for the JSON form of the
// response instead of the binary frame.
func wantsJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// execStatus maps an execution failure to a response status: timeouts
// and shutdown cancellations are retryable (504/503), everything else —
// a spec the registry rejects, a protocol failing mid-run — is a
// deterministic 4xx/5xx the client must not retry.
func execStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
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
	// Cache fast path: a full entry under this spec's content address
	// is served without queueing for an execution slot at all — the
	// stored bytes, behind this request's spec echo, are exactly the
	// response a fresh execution would produce. A summary entry (from
	// /v1/batch) cannot answer a run: it counts as a miss.
	var key string
	if s.results != nil {
		key = wire.SpecCacheKey(spec)
		if val, ok := s.results.GetTagged(key, cacheFull); ok {
			result := entryResult(val)
			stats, outcome, err := wire.DecodeResultSummary(result)
			if err != nil {
				fail(w, http.StatusInternalServerError, "corrupt cached result for %q: %v", spec.Label, err)
				return
			}
			s.serveRun(w, r, runResponse{
				spec: spec, stats: &stats, outcome: outcome,
				digest: string(val[1:fullHead]), cached: true,
				result: result,
			})
			return
		}
	}
	release, errStatus := s.acquire(r.Context())
	if errStatus != 0 {
		s.shed(w, errStatus)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	report, err := wire.ExecuteSpec(ctx, spec)
	if err != nil {
		fail(w, execStatus(err), "execute %q: %v", spec.Label, err)
		return
	}
	// The result payload is encoded once, behind room for a full cache
	// value's head, and the digest is hashed from it: the value stored is
	// that buffer, and the binary response's result is its tail.
	val, digest := wire.EncodeResultEntry(report, fullHead)
	val[0] = cacheFull
	copy(val[1:fullHead], digest)
	if s.results != nil {
		s.results.Put(key, val)
	}
	s.serveRun(w, r, runResponse{
		spec: spec, stats: &report.Stats, outcome: report.Outcome,
		digest: digest, result: val[fullHead:],
	})
}

// runResponse is what a /v1/run response and its log record need, from a
// fresh execution or a cache hit alike. result is the binary body's
// result payload — a cache value's own bytes, on a hit and on a miss
// alike, which is why it is only ever read.
type runResponse struct {
	spec    wire.RunSpec
	stats   *engine.RunStats
	outcome wire.Outcome
	digest  string
	cached  bool
	result  []byte
}

// serveRun writes a /v1/run response — one response path for a hit, a
// miss and a cache-off daemon, so all three emit byte-identical frames
// by construction: the frame head for this request's spec, then the
// result payload as it is.
func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, resp runResponse) {
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "run",
		slog.String("label", resp.spec.Label),
		slog.String("protocol", resp.spec.Protocol),
		slog.String("digest", resp.digest),
		slog.String("resilience", resp.stats.Faults.Resilience.String()),
		slog.Bool("cached", resp.cached),
	)
	if wantsJSON(r) {
		writeJSON(w, wire.SummaryToJSON(resp.spec, resp.stats, resp.outcome, resp.digest))
		return
	}
	writeFrame(w, wire.RunReportHead(resp.spec, len(resp.result)), resp.result)
}

// writeFrame writes a binary response body, head then payload, under a
// declared Content-Length: net/http then sends it unchunked, and the
// client reads it into one buffer of exactly that size.
func writeFrame(w http.ResponseWriter, head, payload []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(payload)))
	w.Write(head)
	w.Write(payload)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		fail(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	specs, err := wire.DecodeBatchSpec(body)
	if err != nil {
		fail(w, http.StatusBadRequest, "decode batch: %v", err)
		return
	}
	// Per-item cache lookup: items whose spec address is already cached
	// (full or summary — a batch item only needs the stats+outcome
	// prefix) are answered from memory; only the misses execute.
	items := make([]wire.BatchItem, len(specs))
	missSpecs := specs
	missIdx := make([]int, 0, len(specs))
	if s.results != nil {
		missSpecs = missSpecs[:0:0]
		for i, spec := range specs {
			items[i].Label = spec.Label
			if val, ok := s.results.Get(wire.SpecCacheKey(spec)); ok {
				stats, outcome, err := wire.DecodeResultSummary(entryResult(val))
				if err == nil {
					items[i].Stats = stats
					items[i].Outcome = outcome
					continue
				}
			}
			missSpecs = append(missSpecs, spec)
			missIdx = append(missIdx, i)
		}
	}
	hits := len(specs) - len(missSpecs)
	if len(missSpecs) > 0 {
		release, errStatus := s.acquire(r.Context())
		if errStatus != 0 {
			s.shed(w, errStatus)
			return
		}
		defer release()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		// The batch runs on one slot: engine.RunBatch already parallelizes
		// across jobs internally, so letting it also multiply against the
		// request limiter would oversubscribe the host.
		missItems := wire.ExecuteBatch(ctx, &engine.Engine{}, missSpecs)
		if err := ctx.Err(); err != nil {
			fail(w, execStatus(err), "execute batch: %v", err)
			return
		}
		if s.results == nil {
			items = missItems
		} else {
			for j, it := range missItems {
				items[missIdx[j]] = it
				if it.Err == "" {
					val := append([]byte{cacheSummary}, wire.EncodeResultSummary(&it.Stats, it.Outcome)...)
					s.results.PutIfAbsent(wire.SpecCacheKey(missSpecs[j]), val)
				}
			}
		}
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "batch",
		slog.Int("specs", len(specs)), slog.Int("cached", hits))
	if wantsJSON(r) {
		writeJSON(w, wire.BatchToJSON(items))
		return
	}
	writeFrame(w, wire.EncodeBatchReport(items), nil)
}

// healthInfo is the healthz response body.
type healthInfo struct {
	Status      string   `json:"status"`
	WireVersion int      `json:"wire_version"`
	Protocols   []string `json:"protocols"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, healthInfo{Status: "ok", WireVersion: wire.Version, Protocols: wire.Protocols()})
}

// CacheStats is the result-cache section of the stats response.
type CacheStats struct {
	Enabled bool `json:"enabled"`
	cache.Stats
	HitRate float64 `json:"hit_rate"`
}

// StatsInfo is the GET /v1/stats response body.
type StatsInfo struct {
	Status        string     `json:"status"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	MaxConcurrent int        `json:"max_concurrent"`
	Cache         CacheStats `json:"cache"`
}

// Stats snapshots the daemon's operational counters — the same body
// GET /v1/stats serves.
func (s *Server) Stats() StatsInfo {
	info := StatsInfo{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		MaxConcurrent: s.cfg.MaxConcurrent,
	}
	if s.results != nil {
		st := s.results.Stats()
		info.Cache = CacheStats{Enabled: true, Stats: st, HitRate: st.HitRate()}
	}
	return info
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Serve runs the daemon on ln until ctx is canceled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// grace to finish, and stragglers are cut off after it. Returns nil on
// a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	if grace <= 0 {
		grace = 5 * time.Second
	}
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info("shutting down", slog.Duration("grace", grace))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if err != nil {
		// Grace expired with requests still in flight; cut them off.
		srv.Close()
	}
	<-errc // drain http.ErrServerClosed from the Serve goroutine
	return err
}
