package main

// The closed-loop load generator: conns connections, each sending its next
// request only after its previous reply, through internal/client with
// retries off (a retried request would hide a failure and double-count
// its latency).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// teeTransport keeps a copy of the last response body it carried, so a
// hit can be compared byte for byte with its warm-up response without
// re-encoding the report the client decoded.
type teeTransport struct {
	base http.RoundTripper
	buf  bytes.Buffer
}

type teeBody struct {
	io.Reader
	io.Closer
}

func (t *teeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.buf.Reset()
	resp.Body = teeBody{Reader: io.TeeReader(resp.Body, &t.buf), Closer: resp.Body}
	return resp, nil
}

// conn is one closed-loop connection. Each is used by one goroutine.
type conn struct {
	cl  *client.Client
	tee *teeTransport
	tr  *tracer // nil unless this is the traced run
}

func newConns(url string, n int, tracing bool) []*conn {
	base := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	conns := make([]*conn, n)
	for i := range conns {
		tee := &teeTransport{base: base}
		conns[i] = &conn{
			cl:  client.New(client.Config{BaseURL: url, Retries: -1, HTTPClient: &http.Client{Transport: tee}}),
			tee: tee,
		}
		if tracing {
			conns[i].tr = newTracer()
		}
	}
	return conns
}

// sample is one completed request.
type sample struct {
	req     int // index of the request within its phase
	latency time.Duration
	// err is a transport, status or decode failure, or a batch reply
	// with the wrong item count; such a request counts as failed.
	err string
	// check holds what the deferred output check compares: the reply's
	// fingerprints (one per spec).
	check []fingerprint
	// deferred marks a hit whose bytes differed from its warm-up reply,
	// to be compared semantically once the phase is over.
	deferred bool
}

// phase identifies which part of a run a request belongs to.
type phase int

const (
	phaseWarm phase = iota
	phaseTimed
)

// exchange sends request r (index i of its phase) on c. Only the client
// call is timed; the output capture after it is not.
func exchange(ctx context.Context, w *workload, c *conn, r request, i int, ph phase, refs *references) sample {
	s := sample{req: i}
	t0 := time.Now()
	var (
		report *wire.RunReport
		items  []wire.BatchItem
		err    error
	)
	if w.batch {
		items, err = c.cl.RunBatch(ctx, r)
	} else {
		report, err = c.cl.Run(ctx, r[0])
	}
	s.latency = time.Since(t0)
	if err != nil {
		s.err = err.Error()
		return s
	}
	switch {
	case w.batch:
		if len(items) != len(r) {
			s.err = fmt.Sprintf("batch reply has %d items for %d specs", len(items), len(r))
			break
		}
		s.check = make([]fingerprint, len(items))
		for k := range items {
			s.check[k] = itemFingerprint(&items[k])
		}
	case !w.hits:
		s.check = []fingerprint{reportFingerprint(report)}
	default:
		s.deferred, s.check = refs.hit(i, ph, c.tee.buf.Bytes(), report)
	}
	if c.tr != nil {
		c.tr.replay(ctx, w, r, ph, s, c.tee.buf.Len(), refs.lru)
	}
	return s
}

// pump runs requests over conns: each connection claims the next index,
// counting from first, until n requests are claimed (n < 0: no limit) or
// the deadline passes (zero: none). It returns the samples and the time
// from start to the last reply.
func pump(ctx context.Context, conns []*conn, first, n int, deadline time.Time, do func(c *conn, i int) sample) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, len(conns))
	start := time.Now()
	var last atomic.Int64
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if n >= 0 && i >= n {
					return
				}
				per[k] = append(per[k], do(c, first+i))
				done := int64(time.Since(start))
				for {
					old := last.Load()
					if done <= old || last.CompareAndSwap(old, done) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, time.Duration(last.Load())
}
