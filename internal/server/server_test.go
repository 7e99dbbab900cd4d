package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg server.Config) (*httptest.Server, *client.Client) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	ts := httptest.NewServer(server.New(cfg))
	t.Cleanup(ts.Close)
	return ts, client.New(client.Config{BaseURL: ts.URL})
}

// TestGoldenParityLocalVsRemote is the service's non-negotiable
// invariant: for every committed fixture spec — one per registered
// protocol, plus three faulted — the transcript obtained through
// refereed over loopback HTTP is byte-identical to the local engine
// run, at Workers 1 and 8 on either side.
func TestGoldenParityLocalVsRemote(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	for _, spec := range wire.SmokeSpecs(1) {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			local, err := wire.ExecuteSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			localBytes := wire.EncodeTranscript(local.Transcript)
			for _, workers := range []int{1, 8} {
				remoteSpec := spec
				remoteSpec.Workers = workers
				remote, err := c.Run(context.Background(), remoteSpec)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wire.EncodeTranscript(remote.Transcript), localBytes) {
					t.Fatalf("workers=%d: remote transcript differs from local run", workers)
				}
				if remote.Digest() != wire.TranscriptDigest(local.Transcript) {
					t.Fatalf("workers=%d: digest drifted", workers)
				}
				if remote.Stats.Faults.Resilience != local.Stats.Faults.Resilience {
					t.Fatalf("workers=%d: resilience %v != local %v",
						workers, remote.Stats.Faults.Resilience, local.Stats.Faults.Resilience)
				}
			}
		})
	}
}

// TestConcurrentRunsUnderLimiter slams the daemon with more simultaneous
// /v1/run requests than it has execution slots; all must succeed, agree
// on the digest, and never exceed the limiter (checked under -race).
func TestConcurrentRunsUnderLimiter(t *testing.T) {
	const clients = 20
	_, c := newTestServer(t, server.Config{MaxConcurrent: 4})
	spec := wire.SmokeSpecs(2)[3] // mm-tworound
	want, err := wire.ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := want.Digest()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			report, err := c.Run(context.Background(), spec)
			if err != nil {
				errs <- err
				return
			}
			if got := report.Digest(); got != wantDigest {
				errs <- fmt.Errorf("digest %s, want %s", got, wantDigest)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGracefulShutdown starts Serve on a real listener, opens requests,
// cancels the serve context mid-flight, and checks that in-flight work
// drains cleanly while new connections are refused.
func TestGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{MaxConcurrent: 8, Logger: quietLogger()})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, 10*time.Second) }()

	c := client.New(client.Config{BaseURL: "http://" + ln.Addr().String(), Retries: -1})
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}

	const inflight = 6
	spec := wire.SmokeSpecs(4)[0]
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := c.Run(context.Background(), spec)
			results <- err
		}()
	}
	// Let the requests reach the daemon, then pull the plug.
	time.Sleep(50 * time.Millisecond)
	cancel()

	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil {
			// A request may lose the race with the listener closing;
			// that surfaces as a connection error, never a corrupt
			// response.
			if !strings.Contains(err.Error(), "connection") && !strings.Contains(err.Error(), "EOF") {
				t.Errorf("in-flight request failed oddly: %v", err)
			}
		}
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after graceful drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("daemon still answering after shutdown")
	}
}

// TestBatchEndpoint checks /v1/batch matches per-spec local execution
// and reports per-item errors instead of failing the whole batch.
func TestBatchEndpoint(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	specs := append(wire.SmokeSpecs(1)[:3],
		wire.RunSpec{Label: "bogus", Protocol: "no-such", Graph: wire.GraphSpec{Kind: "gnp", N: 4, P: 0.5}})
	items, err := c.RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(specs) {
		t.Fatalf("got %d items, want %d", len(items), len(specs))
	}
	for i, spec := range specs[:3] {
		if items[i].Err != "" {
			t.Fatalf("item %d: %s", i, items[i].Err)
		}
		local, err := wire.ExecuteSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if items[i].Stats.TotalBits != local.Stats.TotalBits {
			t.Fatalf("item %d: TotalBits %d != local %d", i, items[i].Stats.TotalBits, local.Stats.TotalBits)
		}
		if items[i].Outcome != local.Outcome {
			t.Fatalf("item %d: outcome %+v != local %+v", i, items[i].Outcome, local.Outcome)
		}
	}
	if items[3].Err == "" || !strings.Contains(items[3].Err, "unknown protocol") {
		t.Fatalf("bogus spec not reported: %+v", items[3])
	}
}

// TestHealthz checks liveness, the advertised wire version, and the
// protocol registry listing.
func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.WireVersion != wire.Version {
		t.Fatalf("unexpected health: %+v", h)
	}
	if len(h.Protocols) < 6 {
		t.Fatalf("registry advertises only %v", h.Protocols)
	}
}

// runJSON posts spec to /v1/run under Accept: application/json and
// decodes the ReportJSON response.
func runJSON(t *testing.T, base string, spec wire.RunSpec) wire.ReportJSON {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/run", bytes.NewReader(wire.EncodeRunSpec(spec)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var j wire.ReportJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestRunJSONResponse checks the Accept: application/json form of
// /v1/run: a ReportJSON with stats, outcome, resilience, and digest but
// no transcript — the same shape sketchlab -json emits.
func TestRunJSONResponse(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	spec := wire.SmokeSpecs(1)[7] // faulted mis-tworound
	j := runJSON(t, ts.URL, spec)
	local, err := wire.ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Digest != local.Digest() {
		t.Fatalf("digest %s != local %s", j.Digest, local.Digest())
	}
	if j.Resilience != local.Stats.Faults.Resilience.String() {
		t.Fatalf("resilience %q != local %q", j.Resilience, local.Stats.Faults.Resilience)
	}
	if len(j.Transcript) != 0 {
		t.Fatal("JSON response should omit the transcript")
	}
}

// runRecord is one "run" log record of the daemon.
type runRecord struct {
	label, digest, resilience string
	cached                    bool
}

// runLog is a slog.Handler that keeps the daemon's "run" records.
type runLog struct {
	mu   sync.Mutex
	recs []runRecord
}

func (l *runLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *runLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *runLog) WithGroup(string) slog.Handler            { return l }

func (l *runLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "run" {
		return nil
	}
	var rec runRecord
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "label":
			rec.label = a.Value.String()
		case "digest":
			rec.digest = a.Value.String()
		case "resilience":
			rec.resilience = a.Value.String()
		case "cached":
			rec.cached = a.Value.Bool()
		}
		return true
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, rec)
	return nil
}

// last returns the most recent record logged for label.
func (l *runLog) last(t *testing.T, label string) runRecord {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.recs) - 1; i >= 0; i-- {
		if l.recs[i].label == label {
			return l.recs[i]
		}
	}
	t.Fatalf("no run record logged for %q", label)
	return runRecord{}
}

// TestCacheHitAcrossForms serves each spec's miss in one response form and
// its hit in the other: a JSON hit after a binary miss, a binary hit after
// a JSON miss. Every response carries the fresh run's digest and
// resilience, and so does each hit's log record, marked cached.
func TestCacheHitAcrossForms(t *testing.T) {
	logs := &runLog{}
	ts, c := newTestServer(t, server.Config{CacheBytes: 1 << 22, Logger: slog.New(logs)})
	for _, tc := range []struct {
		spec    wire.RunSpec
		jsonHit bool
	}{
		{wire.SmokeSpecs(1)[7], true},  // faulted mis-tworound
		{wire.SmokeSpecs(1)[5], false}, // faulted agm-forest-backup
	} {
		local, err := wire.ExecuteSpec(context.Background(), tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		want := runRecord{digest: local.Digest(), resilience: local.Stats.Faults.Resilience.String()}
		binary := func(label string) runRecord {
			spec := tc.spec
			spec.Label = label
			report, err := c.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			return runRecord{digest: report.Digest(), resilience: report.Stats.Faults.Resilience.String()}
		}
		viaJSON := func(label string) runRecord {
			spec := tc.spec
			spec.Label = label
			j := runJSON(t, ts.URL, spec)
			return runRecord{digest: j.Digest, resilience: j.Resilience}
		}
		miss, hit := binary, viaJSON
		if !tc.jsonHit {
			miss, hit = viaJSON, binary
		}
		missLabel, hitLabel := tc.spec.Label+"/miss", tc.spec.Label+"/hit"
		if got := miss(missLabel); got != want {
			t.Fatalf("%s: fresh response %+v, want %+v", missLabel, got, want)
		}
		if got := hit(hitLabel); got != want {
			t.Fatalf("%s: cached response %+v, want %+v", hitLabel, got, want)
		}
		for label, cached := range map[string]bool{missLabel: false, hitLabel: true} {
			got := logs.last(t, label)
			if got.digest != want.digest || got.resilience != want.resilience || got.cached != cached {
				t.Fatalf("%s: logged %+v, want digest %s, resilience %s, cached=%v",
					label, got, want.digest, want.resilience, cached)
			}
		}
	}
	if st := fetchStats(t, ts.URL); st.Cache.Hits != 2 || st.Cache.Misses != 2 {
		t.Fatalf("cache counters %+v, want 2 hits / 2 misses", st.Cache)
	}
}

// TestRunAfterBatchCountsMiss: a batch caches only a stats+outcome
// summary, which cannot answer a /v1/run. The run that finds it executes,
// so its lookup is a miss, not a hit; the full entry it stores then
// answers the next run.
func TestRunAfterBatchCountsMiss(t *testing.T) {
	ts, c := newTestServer(t, server.Config{CacheBytes: 1 << 20})
	spec := wire.SmokeSpecs(1)[3] // mm-tworound
	local, err := wire.ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBatch(context.Background(), []wire.RunSpec{spec}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct{ hits, misses int64 }{{0, 2}, {1, 2}} {
		report, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if report.Digest() != local.Digest() {
			t.Fatalf("run %d: digest %s, want %s", i, report.Digest(), local.Digest())
		}
		if st := fetchStats(t, ts.URL); st.Cache.Hits != want.hits || st.Cache.Misses != want.misses {
			t.Fatalf("after batch and run %d: cache counters %+v, want %d hits / %d misses",
				i, st.Cache, want.hits, want.misses)
		}
	}
}

// TestCacheHitServesIdenticalBytes runs the same spec twice against a
// caching daemon (under two labels and worker counts, the two
// result-neutral fields) and checks that the second response is served
// from the cache yet byte-identical in every result-bearing way.
func TestCacheHitServesIdenticalBytes(t *testing.T) {
	ts, c := newTestServer(t, server.Config{CacheBytes: 1 << 20})
	spec := wire.SmokeSpecs(1)[3] // mm-tworound
	first, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	respec := spec
	respec.Label = "same-run-different-name"
	respec.Workers = 8
	second, err := c.Run(context.Background(), respec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Digest() != first.Digest() {
		t.Fatal("cached transcript digest drifted")
	}
	if !bytes.Equal(wire.EncodeTranscript(second.Transcript), wire.EncodeTranscript(first.Transcript)) {
		t.Fatal("cached transcript bytes drifted")
	}
	if second.Spec.Label != respec.Label {
		t.Fatalf("cached response echoes label %q, want the request's %q", second.Spec.Label, respec.Label)
	}
	if second.Stats.TotalBits != first.Stats.TotalBits || second.Outcome != first.Outcome {
		t.Fatal("cached stats/outcome drifted")
	}
	stats := fetchStats(t, ts.URL)
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 || stats.Cache.Entries != 1 {
		t.Fatalf("cache counters %+v, want 1 hit / 1 miss / 1 entry", stats.Cache)
	}
}

// TestBatchUsesCache checks both directions of batch memoization: a
// /v1/run-populated full entry answers a batch item, and a batch-run
// summary is itself cached for the next batch.
func TestBatchUsesCache(t *testing.T) {
	ts, c := newTestServer(t, server.Config{CacheBytes: 1 << 20})
	specs := wire.SmokeSpecs(1)[:4]
	if _, err := c.Run(context.Background(), specs[0]); err != nil {
		t.Fatal(err)
	}
	want := make([]wire.BatchItem, len(specs))
	for i, spec := range specs {
		local, err := wire.ExecuteSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wire.BatchItem{Label: spec.Label, Stats: local.Stats, Outcome: local.Outcome}
	}
	check := func(items []wire.BatchItem, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(specs) {
			t.Fatalf("%d items, want %d", len(items), len(specs))
		}
		for i := range items {
			if items[i].Err != "" {
				t.Fatalf("item %d: %s", i, items[i].Err)
			}
			if items[i].Label != want[i].Label ||
				items[i].Stats.TotalBits != want[i].Stats.TotalBits ||
				items[i].Outcome != want[i].Outcome {
				t.Fatalf("item %d drifted: %+v", i, items[i])
			}
		}
	}
	check(c.RunBatch(context.Background(), specs))
	st := fetchStats(t, ts.URL)
	if st.Cache.Hits != 1 { // the run-populated full entry
		t.Fatalf("first batch: %d hits, want 1 (from the /v1/run entry)", st.Cache.Hits)
	}
	check(c.RunBatch(context.Background(), specs))
	st = fetchStats(t, ts.URL)
	if st.Cache.Hits != 1+int64(len(specs)) {
		t.Fatalf("second batch: %d hits, want %d (every item cached)", st.Cache.Hits, 1+len(specs))
	}
}

// TestBinaryResponsesDeclareLength: every binary response — a miss, a hit
// and a cache-off /v1/run of a ~2 MB transcript, and a /v1/batch —
// declares its Content-Length, so net/http sends it unchunked and the
// client can read it into one buffer of that size.
func TestBinaryResponsesDeclareLength(t *testing.T) {
	cached, _ := newTestServer(t, server.Config{CacheBytes: 64 << 20})
	uncached, _ := newTestServer(t, server.Config{})
	run := wire.EncodeRunSpec(hitLargeSpec)
	for _, req := range []struct {
		name, url string
		body      []byte
	}{
		{"miss", cached.URL + "/v1/run", run},
		{"hit", cached.URL + "/v1/run", run},
		{"cache off", uncached.URL + "/v1/run", run},
		{"batch", cached.URL + "/v1/batch", wire.EncodeBatchSpec(wire.SmokeSpecs(1))},
	} {
		resp, err := http.Post(req.url, "application/octet-stream", bytes.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.name, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: %d-byte body sent with Content-Length %d and Transfer-Encoding %v",
				req.name, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}
	if st := fetchStats(t, cached.URL); st.Cache.Hits != 1 {
		t.Fatalf("%d cache hits, want 1 (the second run)", st.Cache.Hits)
	}
}

func fetchStats(t *testing.T, base string) server.StatsInfo {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	var info server.StatsInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestStatsDisabledCache checks the stats endpoint's shape when
// memoization is off, through both raw HTTP and the typed client.
func TestStatsDisabledCache(t *testing.T) {
	ts, c := newTestServer(t, server.Config{})
	st := fetchStats(t, ts.URL)
	if st.Status != "ok" || st.Cache.Enabled {
		t.Fatalf("stats %+v, want ok with cache disabled", st)
	}
	cs, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Status != "ok" || cs.Cache.Enabled || cs.MaxConcurrent != st.MaxConcurrent {
		t.Fatalf("client stats %+v disagree with raw stats %+v", cs, st)
	}
}

// TestQueueTimeoutSheds429WithRetryAfter saturates a one-slot daemon
// with a deliberately slow run (full-probability stragglers at 10ms per
// message, sequential, so ≥600ms), then checks a queued request is shed
// with 429 and a Retry-After hint instead of waiting forever.
func TestQueueTimeoutSheds429WithRetryAfter(t *testing.T) {
	ts, c := newTestServer(t, server.Config{MaxConcurrent: 1, QueueTimeout: 100 * time.Millisecond})
	slow := wire.SmokeSpecs(1)[0]
	slow.Workers = 1
	slow.Faults = wire.FaultSpec{Straggle: 1, DelayNS: int64(10 * time.Millisecond), Seed: 9}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), slow)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the slow run claim the only slot
	resp, err := http.Post(ts.URL+"/v1/run", "application/octet-stream",
		bytes.NewReader(wire.EncodeRunSpec(wire.SmokeSpecs(1)[3])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	if err := <-done; err != nil {
		t.Fatalf("slow run failed: %v", err)
	}
}

// and invalid specs are 400s (which the client must not retry), and
// wrong methods are rejected.
func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("/v1/run", []byte("not a frame")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame: status %d, want 400", resp.StatusCode)
	}
	bad := wire.SmokeSpecs(1)[0]
	bad.Workers = -3
	if resp := post("/v1/run", wire.EncodeRunSpec(bad)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/batch", []byte{0xde, 0xad}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage batch: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

// TestPoisonSpecAnswers500: a spec its protocol cannot run on — equality
// compares vertices 0 and 1, and this graph has one vertex — gets a
// deterministic 500 from the daemon, which then still serves a smoke
// spec byte for byte.
func TestPoisonSpecAnswers500(t *testing.T) {
	_, c := newTestServer(t, server.Config{CacheBytes: 1 << 20})
	poison := wire.RunSpec{Label: "poison", Protocol: "equality-public-coin",
		Graph: wire.GraphSpec{Kind: "gnp", N: 1, P: 0.5}, Seed: 1}
	_, err := c.Run(context.Background(), poison)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("poison spec: error %v, want a 500", err)
	}
	smoke := wire.SmokeSpecs(1)[0]
	want, err := wire.ExecuteSpec(context.Background(), smoke)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), smoke)
	if err != nil {
		t.Fatalf("smoke spec after the poison spec: %v", err)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("smoke digest %s, want %s", got.Digest(), want.Digest())
	}
}

// TestRequestTimeout checks that an execution exceeding the per-request
// budget comes back 504 — retryable, in case the daemon was merely
// oversubscribed.
func TestRequestTimeout(t *testing.T) {
	_, c := newTestServer(t, server.Config{Timeout: time.Nanosecond})
	_, err := c.Run(context.Background(), wire.SmokeSpecs(1)[0])
	if err == nil {
		t.Fatal("nanosecond budget should not finish a run")
	}
	if !strings.Contains(err.Error(), "504") && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("timeout surfaced as %v, want a 504", err)
	}
}
