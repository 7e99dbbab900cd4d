package main

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/server"
)

func TestPumpClaimsEveryIndexOnce(t *testing.T) {
	conns := []*conn{{}, {}}
	samples, _ := pump(context.Background(), conns, 40, 500, time.Time{}, func(c *conn, i int) sample {
		return sample{req: i}
	})
	seen := make(map[int]bool)
	for _, s := range samples {
		if seen[s.req] || s.req < 40 || s.req >= 540 {
			t.Fatalf("index %d claimed twice or out of range", s.req)
		}
		seen[s.req] = true
	}
	if len(seen) != 500 {
		t.Fatalf("claimed %d indices, want 500", len(seen))
	}
}

func TestCacheFitsOnlyTheWorkloadsCacheUse(t *testing.T) {
	hit, miss := &workload{hits: true}, &workload{}
	cases := []struct {
		w     *workload
		d     cacheDelta
		specs int64
		want  bool
	}{
		{hit, cacheDelta{hits: 10, lookups: 10}, 10, true},
		{hit, cacheDelta{hits: 9, lookups: 10}, 10, false},
		{hit, cacheDelta{hits: 9, lookups: 9}, 10, false}, // a spec skipped the lookup
		{hit, cacheDelta{}, 0, false},
		{miss, cacheDelta{lookups: 10, evictions: 10}, 10, true},
		{miss, cacheDelta{hits: 1, lookups: 10, evictions: 10}, 10, false},
		{miss, cacheDelta{lookups: 10}, 10, false},              // the cache never filled
		{miss, cacheDelta{evictions: 3}, 10, false},             // no lookups: cache off
		{miss, cacheDelta{lookups: 8, evictions: 8}, 10, false}, // a spec skipped the lookup
	}
	for i, c := range cases {
		if got := c.w.cacheFits(c.d, c.specs); got != c.want {
			t.Errorf("case %d: cacheFits(%+v, %d) = %v, want %v", i, c.d, c.specs, got, c.want)
		}
	}
}

// TestLoadAgainstDaemon runs set-up, a short timed phase with tracing
// on, and the output check against an in-process daemon.
func TestLoadAgainstDaemon(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"hit-small", "miss-mixed", "sketch-batch"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(server.New(server.Config{
			MaxConcurrent: daemonSlots,
			CacheBytes:    w.cacheBytes,
			Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		}))
		p := w.plan(4)
		conns := newConns(srv.URL, w.conns, true)
		refs := &references{working: make([][]byte, len(p.working)), lru: cache.New(w.cacheBytes)}
		if err := warmUp(ctx, w, p, conns, refs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stats := client.New(client.Config{BaseURL: srv.URL, Retries: -1})
		before, err := stats.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		samples, _ := pump(ctx, conns, 0, 6, time.Time{}, func(c *conn, i int) sample {
			return exchange(ctx, w, c, p.next(i), i, phaseTimed, refs)
		})
		after, err := stats.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var specs int64
		for _, s := range samples {
			specs += int64(len(p.next(s.req)))
		}
		if d := counterDelta(before.Cache, after.Cache); !w.cacheFits(d, specs) {
			t.Errorf("%s: cache counters %+v over %d timed specs", name, d, specs)
		}
		var working []fingerprint
		if w.hits {
			working = referenceRuns(ctx, p.working)
		}
		for i, prob := range verify(ctx, w, p, working, refs, samples) {
			if prob != "" {
				t.Errorf("%s: request %d: %s", name, samples[i].req, prob)
			}
		}
		timed := 0
		for _, c := range conns {
			if len(c.tr.errs) > 0 {
				t.Errorf("%s: %v", name, c.tr.errs)
			}
			for _, r := range c.tr.breakdown() {
				if r.info.Phase == phaseTimed {
					timed++
					if r.info.Hit != w.hits {
						t.Errorf("%s: replay hit=%v", name, r.info.Hit)
					}
				}
			}
		}
		if timed != len(samples) {
			t.Errorf("%s: %d timed replays for %d requests", name, timed, len(samples))
		}
		srv.Close()
	}
}
