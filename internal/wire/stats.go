package wire

// RunStats wire and JSON codecs. The binary form is the canonical frame
// the daemon and client exchange; the JSON form is the human-facing
// encoding shared by the /v1/run Accept: application/json response and
// cmd/sketchlab -json. Both carry every RunStats field, including the
// wall-time fields — callers comparing runs for determinism must compare
// transcripts (or their digests), never stats timings.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// EncodeRunStats serializes run stats as one frame.
func EncodeRunStats(s *engine.RunStats) []byte {
	size := enc{sizing: true}
	appendRunStatsPayload(&size, s)
	e := size.frame(kindRunStats)
	appendRunStatsPayload(&e, s)
	return e.b
}

func appendRunStatsPayload(e *enc, s *engine.RunStats) {
	e.str(s.Protocol)
	e.uint(s.N)
	e.uint(s.Rounds)
	e.uint(s.CompletedRounds)
	e.uint(s.Workers)
	e.uint(s.ShardSize)
	e.uint(s.Shards)
	e.uvarint(uint64(s.Broadcasts))
	e.uvarint(uint64(s.EmptyMessages))
	e.uint(s.MaxMessageBits)
	e.uint(len(s.RoundMaxBits))
	for _, v := range s.RoundMaxBits {
		e.uint(v)
	}
	e.uint(len(s.RoundTotalBits))
	for _, v := range s.RoundTotalBits {
		e.uvarint(uint64(v))
	}
	e.uint(len(s.RoundBits))
	for _, r := range s.RoundBits {
		e.uvarint(uint64(r.PlayerBits))
		e.uint(r.PlayerMaxBits)
		e.uint(r.FeedbackBits)
	}
	e.uvarint(uint64(s.TotalBits))
	e.uvarint(uint64(s.FeedbackBits))
	e.uint(len(s.Hist))
	for _, b := range s.Hist {
		e.uint(b.Lo)
		e.uint(b.Hi)
		e.uvarint(uint64(b.Count))
	}
	e.uint(len(s.RoundWall))
	for _, d := range s.RoundWall {
		e.uvarint(uint64(d))
	}
	e.uvarint(uint64(s.ShardWall.Count))
	e.uvarint(uint64(s.ShardWall.Total))
	e.uvarint(uint64(s.ShardWall.Max))
	e.uvarint(uint64(s.BroadcastWall))
	e.uvarint(uint64(s.DecodeWall))
	e.uvarint(uint64(s.TotalWall))
	e.uint(s.PeakInFlight)
	e.bool(s.Faults.Injected)
	e.uint(s.Faults.Dropped)
	e.uint(s.Faults.Corrupted)
	e.uint(s.Faults.FlippedBits)
	e.uint(s.Faults.Straggled)
	e.uint(s.Faults.FeedbackDropped)
	e.uint(s.Faults.FeedbackCorrupted)
	e.uint(int(s.Faults.Resilience))
}

// DecodeRunStats inverts EncodeRunStats.
func DecodeRunStats(data []byte) (*engine.RunStats, error) {
	payload, err := openFrame(data, kindRunStats)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	s := decodeRunStatsPayload(d)
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeRunStatsPayload(d *dec) *engine.RunStats {
	s := &engine.RunStats{}
	s.Protocol = d.str("protocol name")
	s.N = d.int("n")
	s.Rounds = d.int("rounds")
	s.CompletedRounds = d.int("completed rounds")
	s.Workers = d.int("workers")
	s.ShardSize = d.int("shard size")
	s.Shards = d.int("shards")
	s.Broadcasts = int64(d.uvarint())
	s.EmptyMessages = int64(d.uvarint())
	s.MaxMessageBits = d.int("max message bits")
	if n := d.length("round max bits", 1); n > 0 {
		s.RoundMaxBits = make([]int, n)
		for i := range s.RoundMaxBits {
			s.RoundMaxBits[i] = d.int("round max bits")
		}
	}
	if n := d.length("round total bits", 1); n > 0 {
		s.RoundTotalBits = make([]int64, n)
		for i := range s.RoundTotalBits {
			s.RoundTotalBits[i] = int64(d.uvarint())
		}
	}
	if n := d.length("round bits", 3); n > 0 {
		s.RoundBits = make([]engine.RoundStats, n)
		for i := range s.RoundBits {
			s.RoundBits[i].PlayerBits = int64(d.uvarint())
			s.RoundBits[i].PlayerMaxBits = d.int("round player max bits")
			s.RoundBits[i].FeedbackBits = d.int("round feedback bits")
		}
	}
	s.TotalBits = int64(d.uvarint())
	s.FeedbackBits = int64(d.uvarint())
	if n := d.length("histogram bucket", 3); n > 0 {
		s.Hist = make([]engine.HistBucket, n)
		for i := range s.Hist {
			s.Hist[i].Lo = d.int("bucket lo")
			s.Hist[i].Hi = d.int("bucket hi")
			s.Hist[i].Count = int64(d.uvarint())
		}
	}
	if n := d.length("round wall", 1); n > 0 {
		s.RoundWall = make([]time.Duration, n)
		for i := range s.RoundWall {
			s.RoundWall[i] = time.Duration(d.uvarint())
		}
	}
	s.ShardWall.Count = int64(d.uvarint())
	s.ShardWall.Total = time.Duration(d.uvarint())
	s.ShardWall.Max = time.Duration(d.uvarint())
	s.BroadcastWall = time.Duration(d.uvarint())
	s.DecodeWall = time.Duration(d.uvarint())
	s.TotalWall = time.Duration(d.uvarint())
	s.PeakInFlight = d.int("peak in-flight")
	s.Faults.Injected = d.bool()
	s.Faults.Dropped = d.int("dropped")
	s.Faults.Corrupted = d.int("corrupted")
	s.Faults.FlippedBits = d.int("flipped bits")
	s.Faults.Straggled = d.int("straggled")
	s.Faults.FeedbackDropped = d.int("feedback dropped")
	s.Faults.FeedbackCorrupted = d.int("feedback corrupted")
	s.Faults.Resilience = core.Resilience(d.int("resilience"))
	return s
}

// StatsJSON is the machine-readable JSON form of engine.RunStats. All
// durations are nanoseconds; Resilience is its string form ("ok",
// "degraded", "failed").
type StatsJSON struct {
	Protocol        string           `json:"protocol"`
	N               int              `json:"n"`
	Rounds          int              `json:"rounds"`
	CompletedRounds int              `json:"completed_rounds"`
	Workers         int              `json:"workers"`
	ShardSize       int              `json:"shard_size"`
	Shards          int              `json:"shards"`
	Broadcasts      int64            `json:"broadcasts"`
	EmptyMessages   int64            `json:"empty_messages"`
	MaxMessageBits  int              `json:"max_message_bits"`
	RoundMaxBits    []int            `json:"round_max_bits,omitempty"`
	RoundTotalBits  []int64          `json:"round_total_bits,omitempty"`
	RoundBits       []RoundBitsJSON  `json:"round_bits,omitempty"`
	TotalBits       int64            `json:"total_bits"`
	FeedbackBits    int64            `json:"feedback_bits,omitempty"`
	Hist            []HistBucketJSON `json:"hist,omitempty"`
	RoundWallNS     []int64          `json:"round_wall_ns,omitempty"`
	ShardWall       TimerJSON        `json:"shard_wall"`
	BroadcastWallNS int64            `json:"broadcast_wall_ns"`
	DecodeWallNS    int64            `json:"decode_wall_ns"`
	TotalWallNS     int64            `json:"total_wall_ns"`
	PeakInFlight    int              `json:"peak_in_flight"`
	Faults          FaultStatsJSON   `json:"faults"`
}

// RoundBitsJSON is the JSON form of engine.RoundStats: one round's
// player uplink totals plus the referee's feedback downlink length.
type RoundBitsJSON struct {
	PlayerBits    int64 `json:"player_bits"`
	PlayerMaxBits int   `json:"player_max_bits"`
	FeedbackBits  int   `json:"feedback_bits"`
}

// HistBucketJSON is one message-length histogram bucket: Count messages
// with bit-lengths in [Lo, Hi).
type HistBucketJSON struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Count int64 `json:"count"`
}

// TimerJSON is the JSON form of engine.TimerStats.
type TimerJSON struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
}

// FaultStatsJSON is the JSON form of engine.FaultStats.
type FaultStatsJSON struct {
	Injected          bool   `json:"injected"`
	Dropped           int    `json:"dropped"`
	Corrupted         int    `json:"corrupted"`
	FlippedBits       int    `json:"flipped_bits"`
	Straggled         int    `json:"straggled"`
	FeedbackDropped   int    `json:"feedback_dropped,omitempty"`
	FeedbackCorrupted int    `json:"feedback_corrupted,omitempty"`
	Resilience        string `json:"resilience"`
}

// StatsToJSON converts run stats to their JSON form.
func StatsToJSON(s *engine.RunStats) StatsJSON {
	out := StatsJSON{
		Protocol:        s.Protocol,
		N:               s.N,
		Rounds:          s.Rounds,
		CompletedRounds: s.CompletedRounds,
		Workers:         s.Workers,
		ShardSize:       s.ShardSize,
		Shards:          s.Shards,
		Broadcasts:      s.Broadcasts,
		EmptyMessages:   s.EmptyMessages,
		MaxMessageBits:  s.MaxMessageBits,
		RoundMaxBits:    s.RoundMaxBits,
		RoundTotalBits:  s.RoundTotalBits,
		TotalBits:       s.TotalBits,
		FeedbackBits:    s.FeedbackBits,
		ShardWall: TimerJSON{
			Count:   s.ShardWall.Count,
			TotalNS: int64(s.ShardWall.Total),
			MaxNS:   int64(s.ShardWall.Max),
		},
		BroadcastWallNS: int64(s.BroadcastWall),
		DecodeWallNS:    int64(s.DecodeWall),
		TotalWallNS:     int64(s.TotalWall),
		PeakInFlight:    s.PeakInFlight,
		Faults: FaultStatsJSON{
			Injected:          s.Faults.Injected,
			Dropped:           s.Faults.Dropped,
			Corrupted:         s.Faults.Corrupted,
			FlippedBits:       s.Faults.FlippedBits,
			Straggled:         s.Faults.Straggled,
			FeedbackDropped:   s.Faults.FeedbackDropped,
			FeedbackCorrupted: s.Faults.FeedbackCorrupted,
			Resilience:        s.Faults.Resilience.String(),
		},
	}
	for _, r := range s.RoundBits {
		out.RoundBits = append(out.RoundBits, RoundBitsJSON{
			PlayerBits:    r.PlayerBits,
			PlayerMaxBits: r.PlayerMaxBits,
			FeedbackBits:  r.FeedbackBits,
		})
	}
	for _, b := range s.Hist {
		out.Hist = append(out.Hist, HistBucketJSON{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
	}
	for _, d := range s.RoundWall {
		out.RoundWallNS = append(out.RoundWallNS, int64(d))
	}
	return out
}

// StatsFromJSON converts the JSON form back to engine.RunStats, so a
// remote client can feed engine.WriteStats and the rest of the local
// tooling with a daemon's response.
func StatsFromJSON(j StatsJSON) (*engine.RunStats, error) {
	s := &engine.RunStats{
		Protocol:        j.Protocol,
		N:               j.N,
		Rounds:          j.Rounds,
		CompletedRounds: j.CompletedRounds,
		Workers:         j.Workers,
		ShardSize:       j.ShardSize,
		Shards:          j.Shards,
		Broadcasts:      j.Broadcasts,
		EmptyMessages:   j.EmptyMessages,
		MaxMessageBits:  j.MaxMessageBits,
		RoundMaxBits:    j.RoundMaxBits,
		RoundTotalBits:  j.RoundTotalBits,
		TotalBits:       j.TotalBits,
		FeedbackBits:    j.FeedbackBits,
		ShardWall: engine.TimerStats{
			Count: j.ShardWall.Count,
			Total: time.Duration(j.ShardWall.TotalNS),
			Max:   time.Duration(j.ShardWall.MaxNS),
		},
		BroadcastWall: time.Duration(j.BroadcastWallNS),
		DecodeWall:    time.Duration(j.DecodeWallNS),
		TotalWall:     time.Duration(j.TotalWallNS),
		PeakInFlight:  j.PeakInFlight,
	}
	for _, rb := range j.RoundBits {
		s.RoundBits = append(s.RoundBits, engine.RoundStats{
			PlayerBits:    rb.PlayerBits,
			PlayerMaxBits: rb.PlayerMaxBits,
			FeedbackBits:  rb.FeedbackBits,
		})
	}
	for _, b := range j.Hist {
		s.Hist = append(s.Hist, engine.HistBucket{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
	}
	for _, ns := range j.RoundWallNS {
		s.RoundWall = append(s.RoundWall, time.Duration(ns))
	}
	r, err := parseResilience(j.Faults.Resilience)
	if err != nil {
		return nil, err
	}
	s.Faults = engine.FaultStats{
		Injected:          j.Faults.Injected,
		Dropped:           j.Faults.Dropped,
		Corrupted:         j.Faults.Corrupted,
		FlippedBits:       j.Faults.FlippedBits,
		Straggled:         j.Faults.Straggled,
		FeedbackDropped:   j.Faults.FeedbackDropped,
		FeedbackCorrupted: j.Faults.FeedbackCorrupted,
		Resilience:        r,
	}
	return s, nil
}

// parseResilience inverts core.Resilience.String. The empty string maps
// to ok so that hand-written JSON without a faults block stays valid.
func parseResilience(s string) (core.Resilience, error) {
	switch s {
	case "", "ok":
		return core.ResilienceOK, nil
	case "degraded":
		return core.ResilienceDegraded, nil
	case "failed":
		return core.ResilienceFailed, nil
	default:
		return 0, fmt.Errorf("wire: unknown resilience verdict %q", s)
	}
}
