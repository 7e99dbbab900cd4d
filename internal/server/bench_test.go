package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/server"
	"repro/internal/wire"
)

// discardResponse is an http.ResponseWriter that counts and drops the
// body, so a handler benchmark times the handler and not a buffer.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.status = code }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// hitLargeSpec is a ~2 MB agm-forest run, the size of the service's large
// cached transcripts.
var hitLargeSpec = wire.RunSpec{
	Label: "agm-forest", Protocol: "agm-forest", Seed: 11, Workers: 1,
	Graph: wire.GraphSpec{Kind: "gnp", N: 100, P: 8.0 / 99, Seed: 7},
}

// hitLarge starts a caching daemon, fills its cache with hitLargeSpec's
// result and checks that the next request hits. It returns a function
// that serves one more in-process hit, and the size of a hit's response.
func hitLarge(tb testing.TB) (serve func(), size int) {
	s := server.New(server.Config{CacheBytes: 64 << 20, Logger: quietLogger()})
	body := wire.EncodeRunSpec(hitLargeSpec)
	run := func() *discardResponse {
		w := &discardResponse{header: http.Header{}, status: http.StatusOK}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			tb.Fatalf("status %d", w.status)
		}
		return w
	}
	run() // the miss that fills the cache
	size = run().n
	if hits := s.Stats().Cache.Hits; hits != 1 {
		tb.Fatalf("%d cache hits after the second request, want 1", hits)
	}
	return func() { run() }, size
}

// BenchmarkServerHitLarge times one /v1/run cache hit on a ~2 MB
// agm-forest entry, in process: spec decode, validation, cache key and
// lookup, the hit's summary decode and log record, and the frame head
// written before the stored payload.
func BenchmarkServerHitLarge(b *testing.B) {
	serve, size := hitLarge(b)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// missAdaptiveSpecs are the multi-round protocols at miss-mixed's sizes
// in the service benchmark, clean and under its fault plan: the specs
// whose misses run the engine's adaptive rounds.
func missAdaptiveSpecs() []wire.RunSpec {
	gnp := func(n int, p float64) wire.GraphSpec { return wire.GraphSpec{Kind: "gnp", N: n, P: p, Seed: 7} }
	faults := wire.FaultSpec{Drop: 0.1, Corrupt: 0.1, Flip: 2, FbDrop: 0.25, FbCorrupt: 0.25, Seed: 13}
	specs := []wire.RunSpec{
		{Protocol: "mm-tworound", Graph: gnp(400, 0.025)},
		{Protocol: "mis-tworound", Graph: gnp(400, 0.025)},
		{Protocol: "semistream-matching", Graph: gnp(110, 0.04)},
		{Protocol: "mm-tworound", Graph: gnp(350, 0.025), Faults: faults},
		{Protocol: "mis-tworound", Graph: gnp(350, 0.025), Faults: faults},
		{Protocol: "semistream-matching", Graph: gnp(90, 0.045), Faults: faults},
	}
	for i := range specs {
		specs[i].Label = specs[i].Protocol
		specs[i].Seed = uint64(11 + i)
		specs[i].Workers = 1
	}
	return specs
}

// BenchmarkServerMissAdaptive times, per op, one in-process /v1/run miss
// of each missAdaptiveSpecs spec on a fresh caching daemon with
// miss-mixed's 256 KiB budget: spec decode and validation, the cache
// lookup, graph build, every engine round with its referee feedback,
// the resilient decode and verify, the result encode and the cache
// write.
func BenchmarkServerMissAdaptive(b *testing.B) {
	var bodies [][]byte
	for _, spec := range missAdaptiveSpecs() {
		bodies = append(bodies, wire.EncodeRunSpec(spec))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := server.New(server.Config{CacheBytes: 256 << 10, Logger: quietLogger()})
		for _, body := range bodies {
			w := &discardResponse{header: http.Header{}, status: http.StatusOK}
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
		if misses := s.Stats().Cache.Misses; misses != int64(len(bodies)) {
			b.Fatalf("%d cache misses, want %d", misses, len(bodies))
		}
	}
}

// TestRunHitAllocationBound: a /v1/run hit on the ~2 MB entry allocates
// under 64 KiB — the frame head and request bookkeeping, never a copy of
// the stored payload.
func TestRunHitAllocationBound(t *testing.T) {
	serve, size := hitLarge(t)
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if perHit := (after.TotalAlloc - before.TotalAlloc) / runs; perHit >= 64<<10 {
		t.Fatalf("a hit on a %d-byte entry allocates %d bytes, want under 64 KiB", size, perHit)
	}
}
