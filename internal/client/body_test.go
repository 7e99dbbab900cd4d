package client_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// rawDaemon answers every /v1/run on a bare listener with a response
// whose head declares declared body bytes and whose body is body, then
// closes the connection: a peer net/http would never produce.
func rawDaemon(t *testing.T, declared int64, body []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if req, err := http.ReadRequest(bufio.NewReader(conn)); err == nil {
				io.Copy(io.Discard, req.Body)
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", declared)
				conn.Write(body)
			}
			conn.Close()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestRunRejectsShortBody: a body that ends before its declared length is
// an error even when the bytes that did arrive form a valid frame, so no
// report is decoded from it.
func TestRunRejectsShortBody(t *testing.T) {
	spec := wire.SmokeSpecs(1)[0]
	report, err := wire.ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.EncodeRunReport(report)
	c := client.New(client.Config{BaseURL: rawDaemon(t, int64(len(frame))+1, frame), Retries: -1})
	got, err := c.Run(context.Background(), spec)
	if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
		t.Fatalf("short body gave report %v and error %v, want no report and io.ErrUnexpectedEOF", got, err)
	}
}

// lastResponse is a transport that remembers the last response it saw.
type lastResponse struct{ resp *http.Response }

func (l *lastResponse) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	l.resp = resp
	return resp, err
}

// TestRunReadsChunkedBody: a body sent chunked, with no declared length,
// reads and decodes as one sent with a length does.
func TestRunReadsChunkedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spec, err := wire.DecodeRunSpec(mustReadAll(t, r))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		report, err := wire.ExecuteSpec(r.Context(), spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		frame := wire.EncodeRunReport(report)
		w.Write(frame[:len(frame)/2])
		w.(http.Flusher).Flush() // commits the head with no length
		w.Write(frame[len(frame)/2:])
	}))
	t.Cleanup(ts.Close)
	rec := &lastResponse{}
	c := client.New(client.Config{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: rec}})
	spec := wire.SmokeSpecs(1)[3] // mm-tworound: feedback as well as player bits
	report, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.resp.ContentLength != -1 || len(rec.resp.TransferEncoding) == 0 {
		t.Fatalf("response had Content-Length %d and Transfer-Encoding %v, want a chunked body",
			rec.resp.ContentLength, rec.resp.TransferEncoding)
	}
	local, err := wire.ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.Digest() != local.Digest() {
		t.Fatal("chunked run returned a different transcript")
	}
}

// TestDeclaredLengthBeyondClampNotPreallocated: a peer declaring a body
// longer than the client's up-front allocation bound — just past it,
// then a terabyte — makes the client allocate only for the bytes that
// arrive, and the short body is an error, not a panic.
func TestDeclaredLengthBeyondClampNotPreallocated(t *testing.T) {
	for _, declared := range []int64{client.MaxPrealloc + 1, 1 << 40} {
		c := client.New(client.Config{BaseURL: rawDaemon(t, declared, []byte("RSKW")), Retries: -1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Run(context.Background(), wire.SmokeSpecs(1)[0])
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("declared %d bytes, sent 4: error %v, want io.ErrUnexpectedEOF", declared, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("declared %d bytes, sent 4: the request allocated %d bytes, want under 1 MiB", declared, alloc)
		}
	}
}

// BenchmarkClientRunHitLarge times client.Run of a ~2 MB agm-forest
// cache hit from a loopback daemon: the request, the daemon's hit, the
// body read and the report decode.
func BenchmarkClientRunHitLarge(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Config{
		CacheBytes: 64 << 20,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}))
	b.Cleanup(ts.Close)
	c := client.New(client.Config{BaseURL: ts.URL, Retries: -1})
	spec := wire.RunSpec{
		Label: "agm-forest", Protocol: "agm-forest", Seed: 11, Workers: 1,
		Graph: wire.GraphSpec{Kind: "gnp", N: 100, P: 8.0 / 99, Seed: 7},
	}
	var size int64
	for i := 0; i < 2; i++ { // the miss that fills the cache, then a hit
		report, err := c.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		size = int64(len(wire.EncodeRunReport(report)))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
