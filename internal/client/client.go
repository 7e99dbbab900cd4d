// Package client is the typed client for the refereed daemon
// (internal/server). It speaks the binary wire format end to end —
// RunSpec frames out, RunReport frames back — so a remote run returns
// the same decoded transcript object a local engine.Run would produce.
//
// Transient failures (network errors, 429, 502, 503, 504) are retried
// with exponential backoff; when the daemon sheds load with a
// Retry-After hint (the 429 its queue timeout produces), that hint
// replaces the exponential delay for the attempt — the server knows
// how saturated it is better than a client-side schedule does.
// Deterministic failures — a 400 for a spec the daemon rejects, a 500
// for a protocol failing mid-run — are not retried: the engine is
// deterministic, so resubmitting an identical spec can only fail
// identically.
//
// A response body with a declared Content-Length — every binary response
// the daemon and the coordinator send — is read into one buffer of
// exactly that length (a shorter body is an error), and Run decodes the
// report in place: the returned transcript adopts that buffer rather
// than copying each message out of it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// Config carries the client's knobs; the zero value plus a BaseURL is a
// working client.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTPClient overrides the transport. nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retries is the number of re-attempts after the first try on a
	// transient failure. 0 means 3; negative disables retries.
	Retries int
	// Backoff is the delay before the first retry; it doubles per
	// attempt. 0 means 100ms.
	Backoff time.Duration
	// Sleep overrides the inter-retry wait, for tests. nil means a
	// context-aware time.Sleep.
	Sleep func(context.Context, time.Duration) error
}

// Client dispatches runs to a refereed daemon.
type Client struct {
	cfg Config
}

// New builds a Client, applying defaults for zero Config fields.
func New(cfg Config) *Client {
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.Sleep == nil {
		cfg.Sleep = sleepCtx
	}
	return &Client{cfg: cfg}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxRetryAfter caps how long a server's Retry-After hint can stall
// the retry loop; a daemon advertising more than this is treated as if
// it had said this much.
const maxRetryAfter = 30 * time.Second

// StatusError is a non-2xx daemon response.
type StatusError struct {
	Code int
	Body string
	// RetryAfter is the daemon's Retry-After hint (zero when absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("refereed: status %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// parseRetryAfter reads a Retry-After header's delay-seconds form,
// clamped to [0, maxRetryAfter]. The HTTP-date form and garbage both
// yield 0 — the caller falls back to its exponential schedule.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// Retryable reports whether a daemon status is worth re-attempting:
// 429 (shed load), 502/503 (daemon down or draining), 504 (budget
// exceeded on an oversubscribed host). Everything else is
// deterministic — by the engine's determinism contract an identical
// resubmission fails identically — which is also why the cluster
// coordinator uses this split to decide between failing over to
// another backend and returning the error as-is.
func Retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// post sends body to path, retrying transient failures with exponential
// backoff, and returns the response body of the first 2xx answer.
func (c *Client) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	backoff := c.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			// A Retry-After hint from the previous response overrides the
			// exponential delay for this attempt; the schedule itself
			// still advances so a daemon that stops hinting is backed
			// off from progressively.
			delay := backoff
			if se, ok := lastErr.(*StatusError); ok && se.RetryAfter > 0 {
				delay = se.RetryAfter
			}
			if err := c.cfg.Sleep(ctx, delay); err != nil {
				return nil, err
			}
			backoff *= 2
		}
		resp, err := c.do(ctx, path, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if se, ok := err.(*StatusError); ok && !Retryable(se.Code) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("refereed: %d attempts failed, last: %w", c.cfg.Retries+1, lastErr)
}

func (c *Client) do(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("refereed: read %s response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, &StatusError{
			Code:       resp.StatusCode,
			Body:       string(data),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	return data, nil
}

// maxPrealloc bounds the buffer a declared Content-Length makes readBody
// allocate before any byte arrives, so a peer declaring a terabyte cannot
// make the client allocate one. A body declared longer than this (no
// daemon response comes close) is read as it arrives instead.
const maxPrealloc = 64 << 20

// readBody reads a response body. A declared length up to maxPrealloc is
// read into one buffer of exactly that length; a body of unknown length
// (chunked JSON) or one declared longer than maxPrealloc grows as its
// bytes arrive. Either way a body that ends short of its declared length
// is an error (net/http's io.ErrUnexpectedEOF).
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPrealloc {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Run executes one spec on the daemon and returns its full report,
// transcript included. The transcript adopts the response body, which
// nothing else holds.
func (c *Client) Run(ctx context.Context, spec wire.RunSpec) (*wire.RunReport, error) {
	_, report, err := c.RunFrame(ctx, spec)
	return report, err
}

// RunFrame is Run that also returns the daemon's response frame, which
// the report's transcript adopts: a relay may write it on as it is but
// must not modify it.
func (c *Client) RunFrame(ctx context.Context, spec wire.RunSpec) ([]byte, *wire.RunReport, error) {
	data, err := c.post(ctx, "/v1/run", wire.EncodeRunSpec(spec))
	if err != nil {
		return nil, nil, err
	}
	report, err := wire.DecodeRunReport(data)
	if err != nil {
		return nil, nil, err
	}
	return data, report, nil
}

// RunBatch executes specs on the daemon as one batch and returns the
// per-spec stats and outcomes (no transcripts ride along).
func (c *Client) RunBatch(ctx context.Context, specs []wire.RunSpec) ([]wire.BatchItem, error) {
	data, err := c.post(ctx, "/v1/batch", wire.EncodeBatchSpec(specs))
	if err != nil {
		return nil, err
	}
	return wire.DecodeBatchReport(data)
}

// Health describes a live daemon.
type Health struct {
	Status      string   `json:"status"`
	WireVersion int      `json:"wire_version"`
	Protocols   []string `json:"protocols"`
}

// Health checks daemon liveness and wire-version compatibility.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.getJSON(ctx, "/v1/healthz", &h); err != nil {
		return nil, err
	}
	if h.WireVersion != wire.Version {
		return nil, fmt.Errorf("refereed: daemon speaks wire version %d, this build speaks %d", h.WireVersion, wire.Version)
	}
	return &h, nil
}

// CacheStats mirrors the daemon's result-cache counters.
type CacheStats struct {
	Enabled   bool    `json:"enabled"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	MaxBytes  int64   `json:"max_bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// Stats mirrors the daemon's GET /v1/stats body.
type Stats struct {
	Status        string     `json:"status"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	MaxConcurrent int        `json:"max_concurrent"`
	Cache         CacheStats `json:"cache"`
}

// Stats fetches the daemon's operational counters (cache hit/miss/
// eviction totals and occupancy) — what cmd/loadgen samples before and
// after a run to report the cache hit rate of its own traffic.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var s Stats
	if err := c.getJSON(ctx, "/v1/stats", &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// getJSON fetches one JSON endpoint without retries (liveness and
// stats probes want the current truth, not an eventually-successful
// one).
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return fmt.Errorf("refereed: read %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Code: resp.StatusCode, Body: string(data)}
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("refereed: malformed %s response: %w", path, err)
	}
	return nil
}
