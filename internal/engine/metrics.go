package engine

// This file is the engine's metrics registry: lock-free counters, a peak
// gauge, a power-of-two bit-size histogram, and wall-time timers, all
// snapshotted into the typed RunStats that Run and Execute return.

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ n atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// PeakGauge tracks a current value and the maximum it ever reached.
// Enter/Exit are safe for concurrent use; the engine uses one to measure
// peak in-flight Broadcast calls.
type PeakGauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Enter increments the gauge and folds the new value into the peak.
func (g *PeakGauge) Enter() {
	v := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Exit decrements the gauge.
func (g *PeakGauge) Exit() { g.cur.Add(-1) }

// Peak returns the maximum concurrent value observed.
func (g *PeakGauge) Peak() int64 { return g.peak.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds empty messages, bucket i holds lengths in [2^(i-1), 2^i).
const histBuckets = 40

// Histogram counts message bit-lengths in power-of-two buckets.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
}

// Observe records one message of the given bit length.
func (h *Histogram) Observe(bitLen int) {
	i := bits.Len64(uint64(bitLen)) // 0 for empty, else floor(log2)+1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// Buckets returns the non-zero buckets as (lo, hi, count) triples where
// counts cover bit lengths in [lo, hi).
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		lo, hi := 0, 1
		if i > 0 {
			lo, hi = 1<<(i-1), 1<<i
		}
		out = append(out, HistBucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// HistBucket is one rendered histogram bucket: Count messages with bit
// lengths in [Lo, Hi).
type HistBucket struct {
	Lo, Hi int
	Count  int64
}

// Timer aggregates wall-clock durations: count, total, and maximum.
// Record is safe for concurrent use.
type Timer struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// Record folds one duration into the timer.
func (t *Timer) Record(d time.Duration) {
	t.count.Add(1)
	t.total.Add(int64(d))
	for {
		m := t.max.Load()
		if int64(d) <= m || t.max.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// Snapshot returns the timer's aggregates.
func (t *Timer) Snapshot() TimerStats {
	return TimerStats{
		Count: t.count.Load(),
		Total: time.Duration(t.total.Load()),
		Max:   time.Duration(t.max.Load()),
	}
}

// TimerStats is an immutable timer snapshot.
type TimerStats struct {
	Count int64
	Total time.Duration
	Max   time.Duration
}

// Avg returns the mean recorded duration (0 when nothing was recorded).
func (s TimerStats) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// RunStats reports one engine execution. All bit-accounting fields are
// deterministic — identical for every worker count on the same input —
// while the wall-time and peak-in-flight fields describe the particular
// execution.
type RunStats struct {
	// Protocol is the protocol's Name.
	Protocol string
	// N is the number of players (vertices).
	N int
	// Rounds is the number of broadcast rounds the protocol declares.
	Rounds int
	// CompletedRounds counts rounds actually sealed (< Rounds after an
	// error or cancellation).
	CompletedRounds int
	// Workers and ShardSize are the effective scheduling parameters. A
	// round runs min(Workers, Shards) worker goroutines.
	Workers   int
	ShardSize int
	// Shards is the number of vertex shards per round.
	Shards int

	// Broadcasts counts Broadcast calls that completed without error.
	Broadcasts int64
	// EmptyMessages counts zero-bit broadcasts.
	EmptyMessages int64

	// MaxMessageBits is the worst-case single message length over all
	// rounds and players — the model's communication cost measure.
	// Player messages only; referee feedback is accounted separately.
	MaxMessageBits int
	// RoundMaxBits[r] is the worst-case message length within round r,
	// and RoundTotalBits[r] their sum. They duplicate RoundBits[r]'s
	// player fields and stay only for the wire stats payload and
	// perfbench's report check; everything else reads RoundBits.
	RoundMaxBits   []int
	RoundTotalBits []int64
	// TotalBits is the sum of all (player) message lengths.
	TotalBits int64
	// RoundBits[r] splits round r's communication between the players'
	// uplink and the referee's feedback downlink. The player fields
	// duplicate RoundMaxBits/RoundTotalBits (which predate adaptivity and
	// stay player-only for compatibility); the testing/quick property in
	// quick_test.go pins the consistency of the two views.
	RoundBits []RoundStats
	// FeedbackBits is the total referee feedback over all rounds — zero
	// for every non-adaptive protocol. Not included in TotalBits or
	// MaxMessageBits: the model's per-player cost measure is the uplink.
	FeedbackBits int64
	// Hist buckets every message's bit length by powers of two.
	Hist []HistBucket

	// RoundWall[r] is the wall time of round r's broadcast phase.
	RoundWall []time.Duration
	// ShardWall aggregates per-shard wall times across all rounds.
	ShardWall TimerStats
	// BroadcastWall is the wall time of all broadcast rounds combined.
	BroadcastWall time.Duration
	// DecodeWall is the referee's decode wall time (zero for Execute).
	DecodeWall time.Duration
	// TotalWall is the end-to-end wall time.
	TotalWall time.Duration

	// PeakInFlight is the maximum number of Broadcast calls observed
	// executing concurrently (1 for a sequential run).
	PeakInFlight int

	// Faults describes injected channel faults and the referee's
	// resilience verdict. The zero value means a clean, unfaulted run.
	Faults FaultStats
}

// RoundStats is one round's bit accounting split by direction: what the
// players sent up versus what the referee broadcast back down after the
// round barrier (engine.Adaptive feedback). All fields are deterministic
// — identical for every Workers setting.
type RoundStats struct {
	// PlayerBits is the sum of the round's player message lengths.
	PlayerBits int64
	// PlayerMaxBits is the round's longest single player message.
	PlayerMaxBits int
	// FeedbackBits is the length of the referee's feedback broadcast
	// sealed after the round (0 when the protocol is non-adaptive or the
	// referee stayed silent).
	FeedbackBits int
}

// FaultStats accounts for channel faults injected by internal/faults and
// the resilience verdict of the decode that ran over them. All fields are
// re-derived from the public fault coins over the sealed transcript, so
// they are deterministic — identical for every Workers setting.
type FaultStats struct {
	// Injected reports whether a fault plan was active at all.
	Injected bool
	// Dropped counts broadcasts replaced by empty messages.
	Dropped int
	// Corrupted counts broadcasts that had bits flipped (drops take
	// precedence: a message is never both).
	Corrupted int
	// FlippedBits is the total number of bit-flip injections applied.
	FlippedBits int
	// Straggled counts broadcasts that were artificially delayed.
	Straggled int
	// FeedbackDropped counts referee feedback broadcasts replaced by
	// empty messages (adaptive protocols under a feedback-faulting plan).
	FeedbackDropped int
	// FeedbackCorrupted counts referee feedback broadcasts that had bits
	// flipped (feedback drops take precedence, as for player messages).
	FeedbackCorrupted int
	// Resilience is the folded referee verdict for the run.
	Resilience core.Resilience
}

// AvgMessageBits returns the mean message length over all broadcasts.
func (s *RunStats) AvgMessageBits() float64 {
	if s.Broadcasts == 0 {
		return 0
	}
	return float64(s.TotalBits) / float64(s.Broadcasts)
}

// registry is the live metric set the engine updates during a run; it is
// snapshotted into RunStats once the run settles.
type registry struct {
	broadcasts Counter
	empty      Counter
	inFlight   PeakGauge
	hist       Histogram
	shardWall  Timer
}

// snapshot folds the registry's live metrics into stats.
func (r *registry) snapshot(stats *RunStats) {
	stats.Broadcasts = r.broadcasts.Value()
	stats.EmptyMessages = r.empty.Value()
	stats.Hist = r.hist.Buckets()
	stats.ShardWall = r.shardWall.Snapshot()
	stats.PeakInFlight = int(r.inFlight.Peak())
}

// WriteStats renders a human-readable report of one run.
func WriteStats(w io.Writer, s *RunStats) error {
	if _, err := fmt.Fprintf(w, "== engine run: %s ==\n", s.Protocol); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "n=%d rounds=%d/%d workers=%d shard-size=%d shards=%d\n",
		s.N, s.CompletedRounds, s.Rounds, s.Workers, s.ShardSize, s.Shards); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "broadcasts=%d empty=%d max=%d bits avg=%.1f bits total=%d bits\n",
		s.Broadcasts, s.EmptyMessages, s.MaxMessageBits, s.AvgMessageBits(), s.TotalBits); err != nil {
		return err
	}
	for r := 0; r < s.CompletedRounds; r++ {
		rb := s.RoundBits[r]
		if _, err := fmt.Fprintf(w, "round %d: max=%d bits total=%d bits feedback=%d bits wall=%s\n",
			r, rb.PlayerMaxBits, rb.PlayerBits, rb.FeedbackBits, s.RoundWall[r]); err != nil {
			return err
		}
	}
	if s.FeedbackBits > 0 {
		if _, err := fmt.Fprintf(w, "referee feedback: total=%d bits\n", s.FeedbackBits); err != nil {
			return err
		}
	}
	if len(s.Hist) > 0 {
		if _, err := fmt.Fprint(w, "message bits histogram:"); err != nil {
			return err
		}
		for _, b := range s.Hist {
			if _, err := fmt.Fprintf(w, " [%d,%d)=%d", b.Lo, b.Hi, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "shards: %d timed, avg=%s max=%s\n",
		s.ShardWall.Count, s.ShardWall.Avg(), s.ShardWall.Max); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "wall: broadcast=%s decode=%s total=%s peak-in-flight=%d\n",
		s.BroadcastWall, s.DecodeWall, s.TotalWall, s.PeakInFlight); err != nil {
		return err
	}
	if s.Faults.Injected {
		if _, err := fmt.Fprintf(w, "faults: dropped=%d corrupted=%d flipped-bits=%d straggled=%d fb-dropped=%d fb-corrupted=%d resilience=%s\n",
			s.Faults.Dropped, s.Faults.Corrupted, s.Faults.FlippedBits,
			s.Faults.Straggled, s.Faults.FeedbackDropped, s.Faults.FeedbackCorrupted,
			s.Faults.Resilience); err != nil {
			return err
		}
	}
	return nil
}
