package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testBackend is one refereed daemon on a real loopback listener,
// killable (and restartable on the same address) mid-test.
type testBackend struct {
	addr string
	stop context.CancelFunc
	done chan error
	once sync.Once
}

// startBackendAt boots a refereed daemon on addr ("" for an ephemeral
// port) with a 1ms shutdown grace, so kill() approximates a crash:
// the listener closes immediately and in-flight requests are cut off.
func startBackendAt(t *testing.T, addr string, cfg server.Config) *testBackend {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logger = quietLogger()
	ctx, cancel := context.WithCancel(context.Background())
	b := &testBackend{addr: ln.Addr().String(), stop: cancel, done: make(chan error, 1)}
	s := server.New(cfg)
	go func() { b.done <- s.Serve(ctx, ln, time.Millisecond) }()
	t.Cleanup(func() { b.kill() })
	return b
}

// kill stops the backend and waits for its listener to be gone.
// Idempotent, so tests can kill explicitly and Cleanup can kill again.
func (b *testBackend) kill() {
	b.once.Do(func() {
		b.stop()
		select {
		case <-b.done:
		case <-time.After(10 * time.Second):
		}
	})
}

// startCluster boots n caching backends plus a coordinator over them.
func startCluster(t *testing.T, n int) ([]*testBackend, *cluster.Coordinator) {
	t.Helper()
	backends := make([]*testBackend, n)
	addrs := make([]string, n)
	for i := range backends {
		backends[i] = startBackendAt(t, "", server.Config{CacheBytes: 1 << 20})
		addrs[i] = backends[i].addr
	}
	co, err := cluster.New(cluster.Config{
		Backends:     addrs,
		ProbeTimeout: time.Second,
		Backoff:      10 * time.Millisecond,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return backends, co
}

// localDigests executes every smoke spec in-process — the single-node
// reference the cluster must match byte for byte.
func localDigests(t *testing.T) ([]wire.RunSpec, []*wire.RunReport) {
	t.Helper()
	specs := wire.SmokeSpecs(1)
	reports := make([]*wire.RunReport, len(specs))
	for i, spec := range specs {
		r, err := wire.ExecuteSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = r
	}
	return specs, reports
}

// TestCoordinatorParityAllSpecs routes all 16 smoke specs through a
// 3-backend cluster over real HTTP (the coordinator is hit through its
// own /v1 surface, exactly as loadgen and sketchlab -remote would) and
// checks every report is digest-identical to single-node local
// execution; a second pass must then be served from the backend caches.
func TestCoordinatorParityAllSpecs(t *testing.T) {
	_, co := startCluster(t, 3)
	front := httptest.NewServer(co)
	t.Cleanup(front.Close)
	c := client.New(client.Config{BaseURL: front.URL})
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("coordinator healthz: %v", err)
	}
	specs, local := localDigests(t)
	for pass := 0; pass < 2; pass++ {
		for i, spec := range specs {
			report, err := c.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, spec.Label, err)
			}
			if report.Digest() != local[i].Digest() {
				t.Fatalf("pass %d %s: digest drifted", pass, spec.Label)
			}
		}
	}
	// Batch through the cluster too: stats and outcomes must match.
	items, err := c.RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if items[i].Err != "" {
			t.Fatalf("batch item %s: %s", specs[i].Label, items[i].Err)
		}
		if items[i].Stats.TotalBits != local[i].Stats.TotalBits || items[i].Outcome != local[i].Outcome {
			t.Fatalf("batch item %s drifted", specs[i].Label)
		}
	}
	st := co.Stats(context.Background())
	if !st.Cache.Enabled || st.Cache.Hits == 0 {
		t.Fatalf("aggregated cache stats %+v, want hits from the second pass", st.Cache)
	}
	if st.Failovers != 0 {
		t.Fatalf("%d failovers in a healthy cluster", st.Failovers)
	}
	var spread int
	for _, b := range st.Backends {
		if b.Dispatched > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("only %d of 3 backends served traffic; ring is not spreading", spread)
	}
}

// TestCoordinatorResponsesDeclareLength: the coordinator's binary
// /v1/run (a ~2 MB transcript) and /v1/batch responses declare their
// Content-Length as a daemon's do, so net/http sends them unchunked.
func TestCoordinatorResponsesDeclareLength(t *testing.T) {
	_, co := startCluster(t, 2)
	front := httptest.NewServer(co)
	t.Cleanup(front.Close)
	large := wire.RunSpec{
		Label: "agm-forest", Protocol: "agm-forest", Seed: 11, Workers: 1,
		Graph: wire.GraphSpec{Kind: "gnp", N: 100, P: 8.0 / 99, Seed: 7},
	}
	for _, req := range []struct {
		path string
		body []byte
	}{
		{"/v1/run", wire.EncodeRunSpec(large)},
		{"/v1/batch", wire.EncodeBatchSpec(wire.SmokeSpecs(1))},
	} {
		resp, err := http.Post(front.URL+req.path, "application/octet-stream", bytes.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.path, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: %d-byte body sent with Content-Length %d and Transfer-Encoding %v",
				req.path, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// TestCoordinatorRelaysBackendFrame: the coordinator's binary /v1/run
// body is the backend's own frame, byte for byte, for every smoke spec.
// The coordinator's request runs the spec on the only backend, which
// caches it; asking the backend directly then returns the cached frame,
// wall times included, so the two bodies must be identical.
func TestCoordinatorRelaysBackendFrame(t *testing.T) {
	backend := startBackendAt(t, "", server.Config{CacheBytes: 64 << 20})
	co, err := cluster.New(cluster.Config{
		Backends:     []string{backend.addr},
		ProbeTimeout: time.Second,
		Backoff:      10 * time.Millisecond,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co)
	t.Cleanup(front.Close)
	post := func(url string, spec wire.RunSpec) []byte {
		t.Helper()
		resp, err := http.Post(url+"/v1/run", "application/octet-stream", bytes.NewReader(wire.EncodeRunSpec(spec)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", spec.Label, resp.StatusCode, body)
		}
		return body
	}
	for _, spec := range wire.SmokeSpecs(1) {
		relayed := post(front.URL, spec)
		direct := post("http://"+backend.addr, spec)
		if !bytes.Equal(relayed, direct) {
			t.Errorf("%s: coordinator sent %d bytes that differ from the backend's %d", spec.Label, len(relayed), len(direct))
		}
	}
}

// TestCoordinatorFailoverMidSweep is the chaos sweep: a seed-derived
// schedule picks when to kill and when to restart; the victim is the
// owner of the next spec, so failover is exercised deterministically.
// Every report — before, during, and after the crash — must stay
// digest-identical to the single-node run.
func TestCoordinatorFailoverMidSweep(t *testing.T) {
	backends, co := startCluster(t, 3)
	specs, local := localDigests(t)

	// Seed-derived chaos schedule, faults-style: the kill point moves
	// with the seed but the assertion never weakens.
	chaos := rng.NewSource(1177)
	killAt := 2 + chaos.Intn(4)             // kill before this spec's dispatch
	restartAt := killAt + 3 + chaos.Intn(3) // restart before this one's

	byAddr := make(map[string]*testBackend, len(backends))
	addrs := make([]string, len(backends))
	for i, b := range backends {
		byAddr[b.addr] = b
		addrs[i] = b.addr
	}
	ring := cluster.NewRing(addrs, 0)
	victimAddr := ring.Owner([]byte(wire.SpecCacheKey(specs[killAt])))

	for i, spec := range specs {
		if i == killAt {
			byAddr[victimAddr].kill()
		}
		if i == restartAt {
			byAddr[victimAddr] = startBackendAt(t, victimAddr, server.Config{CacheBytes: 1 << 20})
			co.CheckBackends(context.Background())
		}
		report, err := co.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("spec %d (%s) with %s dead: %v", i, spec.Label, victimAddr, err)
		}
		if report.Digest() != local[i].Digest() {
			t.Fatalf("spec %d (%s): digest drifted during failover", i, spec.Label)
		}
	}
	st := co.Stats(context.Background())
	if st.Failovers == 0 {
		t.Fatal("victim owned the next spec; the sweep must have failed over")
	}
	for _, b := range st.Backends {
		if b.Addr == victimAddr && !b.Alive {
			t.Fatalf("victim %s not revived after restart + health check", victimAddr)
		}
	}
}

// TestCoordinatorBatchFailover kills a backend without telling the
// coordinator, then dispatches the full smoke batch: the dead owner's
// sub-batch fails mid-batch and must redistribute across survivors,
// completing every item identically to local execution. Run under
// -race in make test-race.
func TestCoordinatorBatchFailover(t *testing.T) {
	backends, co := startCluster(t, 3)
	specs, local := localDigests(t)
	// Silent crash: the coordinator still believes all three are up.
	backends[1].kill()
	items := co.RunBatch(context.Background(), specs)
	for i := range items {
		if items[i].Err != "" {
			t.Fatalf("item %s: %s", specs[i].Label, items[i].Err)
		}
		if items[i].Stats.TotalBits != local[i].Stats.TotalBits || items[i].Outcome != local[i].Outcome {
			t.Fatalf("item %s drifted after mid-batch failover", specs[i].Label)
		}
	}
	st := co.Stats(context.Background())
	var deadSeen bool
	for _, b := range st.Backends {
		if b.Addr == backends[1].addr {
			deadSeen = true
			if b.Alive {
				t.Fatal("crashed backend still marked alive after the batch")
			}
		}
	}
	if !deadSeen {
		t.Fatal("crashed backend missing from stats")
	}
	if st.Failovers == 0 {
		t.Fatal("no failovers recorded though a backend was dead")
	}
}

// TestCoordinatorKillDuringInflightBatch kills the owner of a
// deliberately slow spec while its sub-batch is in flight (1ms server
// grace cuts the request off mid-execution); the items must
// redistribute and complete.
func TestCoordinatorKillDuringInflightBatch(t *testing.T) {
	backends, co := startCluster(t, 3)
	addrs := make([]string, len(backends))
	byAddr := make(map[string]*testBackend, len(backends))
	for i, b := range backends {
		addrs[i] = b.addr
		byAddr[b.addr] = b
	}
	slow := wire.SmokeSpecs(1)[0]
	slow.Label = "slow-straggler"
	slow.Workers = 1
	slow.Faults = wire.FaultSpec{Straggle: 1, DelayNS: int64(5 * time.Millisecond), Seed: 7}
	specs := append(wire.SmokeSpecs(1)[:4], slow)
	owner := cluster.NewRing(addrs, 0).Owner([]byte(wire.SpecCacheKey(slow)))

	want := make([]*wire.RunReport, len(specs))
	for i, spec := range specs {
		r, err := wire.ExecuteSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	go func() {
		time.Sleep(100 * time.Millisecond) // let the sub-batches get in flight
		byAddr[owner].kill()
	}()
	items := co.RunBatch(context.Background(), specs)
	for i := range items {
		if items[i].Err != "" {
			t.Fatalf("item %s: %s", specs[i].Label, items[i].Err)
		}
		if items[i].Stats.TotalBits != want[i].Stats.TotalBits {
			t.Fatalf("item %s drifted", specs[i].Label)
		}
	}
}

// TestCoordinatorDeterministicErrorNotFailedOver: a spec the registry
// rejects fails identically everywhere, so the coordinator must return
// the backend's 400 as-is without burning the ring.
func TestCoordinatorDeterministicErrorNotFailedOver(t *testing.T) {
	_, co := startCluster(t, 3)
	bogus := wire.RunSpec{Label: "bogus", Protocol: "no-such-protocol",
		Graph: wire.GraphSpec{Kind: "gnp", N: 4, P: 0.5}}
	_, err := co.Run(context.Background(), bogus)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("error %v, want the backend's 400 passed through", err)
	}
	st := co.Stats(context.Background())
	if st.Failovers != 0 {
		t.Fatalf("%d failovers on a deterministic failure", st.Failovers)
	}
	for _, b := range st.Backends {
		if !b.Alive {
			t.Fatalf("backend %s marked down by a deterministic failure", b.Addr)
		}
	}
}

// TestCoordinatorAllBackendsDead: with the whole cluster gone, run
// dispatch fails with a 502-shaped error and healthz turns degraded.
func TestCoordinatorAllBackendsDead(t *testing.T) {
	backends, co := startCluster(t, 2)
	for _, b := range backends {
		b.kill()
	}
	co.CheckBackends(context.Background())
	_, err := co.Run(context.Background(), wire.SmokeSpecs(1)[0])
	if err == nil || !strings.Contains(err.Error(), "no live backend") {
		t.Fatalf("error %v, want no-live-backend", err)
	}
	front := httptest.NewServer(co)
	t.Cleanup(front.Close)
	resp, err := http.Get(front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503 when no backend is live", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Role     string `json:"role"`
		Backends []struct {
			Alive bool `json:"alive"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Role != "coordinator" || len(h.Backends) != 2 {
		t.Fatalf("healthz body %+v", h)
	}
}

// TestCoordinatorRejectsEmptyConfig documents the constructor contract.
func TestCoordinatorRejectsEmptyConfig(t *testing.T) {
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Fatal("no backends must be a configuration error")
	}
	if _, err := cluster.New(cluster.Config{Backends: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("duplicate backends must be a configuration error")
	}
}
