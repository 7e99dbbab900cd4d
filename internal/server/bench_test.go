package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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

// BenchmarkServerHitLarge times one /v1/run cache hit on a ~2 MB
// agm-forest entry, in process: spec decode, validation, cache key and
// lookup, the hit's summary decode and log record, and the re-framed
// response.
func BenchmarkServerHitLarge(b *testing.B) {
	s := server.New(server.Config{CacheBytes: 64 << 20, Logger: quietLogger()})
	spec := wire.RunSpec{
		Label: "agm-forest", Protocol: "agm-forest", Seed: 11, Workers: 1,
		Graph: wire.GraphSpec{Kind: "gnp", N: 100, P: 8.0 / 99, Seed: 7},
	}
	body := wire.EncodeRunSpec(spec)
	serve := func() *discardResponse {
		w := &discardResponse{header: http.Header{}, status: http.StatusOK}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
		return w
	}
	serve() // the miss that fills the cache
	b.SetBytes(int64(serve().n))
	if hits := s.Stats().Cache.Hits; hits != 1 {
		b.Fatalf("%d cache hits after the second request, want 1", hits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
