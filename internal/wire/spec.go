package wire

// RunSpec is the service's unit of work: everything a refereed daemon
// needs to reproduce one protocol execution bit-for-bit. Specs carry
// seeds, never materialized randomness — the daemon re-derives the public
// coin tree from RunSpec.Seed exactly as a local run does, which is what
// makes the local/remote transcript parity invariant possible at all.

import (
	"fmt"
	"time"

	"repro/internal/dynstream"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/rsgraph"
)

// GraphSpec names one deterministic input graph. Kind selects the
// generator; the other fields are its parameters (unused ones stay zero).
type GraphSpec struct {
	// Kind is the generator name: gnp, gnp-bipartite, path, cycle,
	// complete, star, grid, matching-union, rs-behrend, rs-disjoint,
	// dyn-churn.
	Kind string `json:"kind"`
	// N is the vertex count (gnp, path, cycle, complete, star,
	// matching-union) or the left side size (gnp-bipartite).
	N int `json:"n,omitempty"`
	// M is the right side size (gnp-bipartite), the Behrend family
	// parameter (rs-behrend), the matching count (matching-union), or
	// the epoch count (dyn-churn).
	M int `json:"m,omitempty"`
	// R and T are rows×cols (grid), matching size×count (rs-disjoint),
	// or ops-per-epoch×target-edges (dyn-churn).
	R int `json:"r,omitempty"`
	T int `json:"t,omitempty"`
	// P is the edge probability of the random families, or the churn
	// rate (dyn-churn).
	P float64 `json:"p,omitempty"`
	// Seed seeds the random families (ignored by deterministic ones).
	Seed uint64 `json:"seed,omitempty"`
}

// BuildGraph materializes a graph spec. The construction is a pure
// function of the spec, so every daemon and every local caller agree on
// the instance down to the adjacency order.
func BuildGraph(s GraphSpec) (*graph.Graph, error) {
	bad := func(format string, args ...any) (*graph.Graph, error) {
		return nil, fmt.Errorf("wire: graph %s: %s", s.Kind, fmt.Sprintf(format, args...))
	}
	needN := func(minimum int) error {
		if s.N < minimum {
			return fmt.Errorf("wire: graph %s: n must be >= %d, got %d", s.Kind, minimum, s.N)
		}
		return nil
	}
	switch s.Kind {
	case "gnp":
		if err := needN(1); err != nil {
			return nil, err
		}
		if s.P < 0 || s.P > 1 {
			return bad("edge probability %g outside [0,1]", s.P)
		}
		return gen.Gnp(s.N, s.P, rng.NewSource(s.Seed)), nil
	case "gnp-bipartite":
		if s.N < 1 || s.M < 1 {
			return bad("sides must be positive, got %d and %d", s.N, s.M)
		}
		if s.P < 0 || s.P > 1 {
			return bad("edge probability %g outside [0,1]", s.P)
		}
		return gen.GnpBipartite(s.N, s.M, s.P, rng.NewSource(s.Seed)), nil
	case "path":
		if err := needN(1); err != nil {
			return nil, err
		}
		return gen.Path(s.N), nil
	case "cycle":
		if err := needN(3); err != nil {
			return nil, err
		}
		return gen.Cycle(s.N), nil
	case "complete":
		if err := needN(1); err != nil {
			return nil, err
		}
		return gen.Complete(s.N), nil
	case "star":
		if err := needN(1); err != nil {
			return nil, err
		}
		return gen.Star(s.N), nil
	case "grid":
		if s.R < 1 || s.T < 1 {
			return bad("rows and cols must be positive, got %d and %d", s.R, s.T)
		}
		return gen.Grid(s.R, s.T), nil
	case "matching-union":
		if s.N < 2 || s.N%2 != 0 || s.M < 1 {
			return bad("need even n >= 2 and m >= 1 matchings, got n=%d m=%d", s.N, s.M)
		}
		return gen.RandomMatchingUnion(s.N, s.M, rng.NewSource(s.Seed)), nil
	case "rs-behrend":
		rs, err := rsgraph.BuildBehrend(s.M)
		if err != nil {
			return bad("%v", err)
		}
		return rs.G, nil
	case "rs-disjoint":
		if s.R < 1 || s.T < 1 {
			return bad("matching size and count must be positive, got r=%d t=%d", s.R, s.T)
		}
		return rsgraph.DisjointMatchings(s.R, s.T).G, nil
	case "dyn-churn":
		// A dynamic-stream instance: generate the seed-derived churn
		// stream (N vertices, M epochs of R ops, T target edges, churn
		// rate P) and materialize its final epoch. Stream generation is
		// a pure function of the spec, so daemons agree on the graph —
		// and on every earlier epoch, which the dynstream checkpoint
		// tests pin against from-scratch rebuilds.
		stream, err := dynstream.Generate(dynstream.Spec{
			N: s.N, Epochs: s.M, OpsPerEpoch: s.R,
			Pattern: dynstream.PatternChurn, TargetEdges: s.T, Churn: s.P,
			Seed: s.Seed,
		})
		if err != nil {
			return bad("%v", err)
		}
		return stream.FinalGraph(), nil
	default:
		return nil, fmt.Errorf("wire: unknown graph kind %q", s.Kind)
	}
}

// FaultSpec is the wire form of a fault plan plus the seed of the fault
// coin tree. The zero value injects nothing. The executor derives fault
// coins as NewPublicCoins(Seed).Derive("faults"), the same convention the
// committed faulted fixtures use, so faulted remote runs reproduce the
// exact damage pattern of their local counterparts.
type FaultSpec struct {
	Drop     float64 `json:"drop,omitempty"`
	Corrupt  float64 `json:"corrupt,omitempty"`
	Flip     int     `json:"flip,omitempty"`
	Straggle float64 `json:"straggle,omitempty"`
	DelayNS  int64   `json:"delay_ns,omitempty"`
	// FbDrop and FbCorrupt damage the referee's feedback downlink of
	// adaptive protocols (engine.Adaptive); both are no-ops on the empty
	// feedback of non-adaptive runs.
	FbDrop    float64 `json:"fb_drop,omitempty"`
	FbCorrupt float64 `json:"fb_corrupt,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
}

// Plan converts the spec to the faults package's plan.
func (f FaultSpec) Plan() faults.Plan {
	return faults.Plan{
		DropProb:            f.Drop,
		CorruptProb:         f.Corrupt,
		FlipBits:            f.Flip,
		StragglerProb:       f.Straggle,
		StragglerDelay:      time.Duration(f.DelayNS),
		FeedbackDropProb:    f.FbDrop,
		FeedbackCorruptProb: f.FbCorrupt,
	}
}

// FaultSpecFor converts a fault plan plus fault-coin seed to wire form.
func FaultSpecFor(p faults.Plan, seed uint64) FaultSpec {
	return FaultSpec{
		Drop:      p.DropProb,
		Corrupt:   p.CorruptProb,
		Flip:      p.FlipBits,
		Straggle:  p.StragglerProb,
		DelayNS:   int64(p.StragglerDelay),
		FbDrop:    p.FeedbackDropProb,
		FbCorrupt: p.FeedbackCorruptProb,
		Seed:      seed,
	}
}

// RunSpec fully determines one protocol execution.
type RunSpec struct {
	// Label names the run in reports and logs (optional).
	Label string `json:"label,omitempty"`
	// Protocol is a registry name — see Protocols().
	Protocol string `json:"protocol"`
	// Graph is the input instance.
	Graph GraphSpec `json:"graph"`
	// Seed roots the protocol's public coin tree: the executor runs with
	// rng.NewPublicCoins(Seed). Derived sub-streams (e.g. a sweep's
	// per-trial coins) are expressed by sending the derived node's Seed().
	Seed uint64 `json:"seed"`
	// Workers is the engine worker count; 0 selects GOMAXPROCS. The
	// engine's determinism contract makes this a pure throughput knob —
	// it can never change a transcript bit.
	Workers int `json:"workers,omitempty"`
	// Faults optionally injects seed-derived channel faults.
	Faults FaultSpec `json:"faults,omitempty"`
}

// Validate rejects specs no executor should attempt.
func (s RunSpec) Validate() error {
	if s.Protocol == "" {
		return fmt.Errorf("wire: spec has no protocol")
	}
	if _, err := lookupProtocol(s.Protocol); err != nil {
		return err
	}
	if s.Graph.Kind == "" {
		return fmt.Errorf("wire: spec has no graph kind")
	}
	if s.Workers < 0 {
		return fmt.Errorf("wire: workers must be >= 1 (or 0 for GOMAXPROCS), got %d", s.Workers)
	}
	p := s.Faults
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"corrupt", p.Corrupt}, {"straggle", p.Straggle},
		{"fb-drop", p.FbDrop}, {"fb-corrupt", p.FbCorrupt}} {
		if pr.v < 0 || pr.v > 1 || pr.v != pr.v {
			return fmt.Errorf("wire: fault %s probability %g outside [0,1]", pr.name, pr.v)
		}
	}
	if p.Flip < 0 {
		return fmt.Errorf("wire: fault flip count must be >= 0, got %d", p.Flip)
	}
	if p.DelayNS < 0 {
		return fmt.Errorf("wire: fault delay must be >= 0, got %dns", p.DelayNS)
	}
	return nil
}

// EncodeRunSpec serializes a spec as one frame.
func EncodeRunSpec(s RunSpec) []byte {
	size := enc{sizing: true}
	appendRunSpecPayload(&size, s)
	e := size.frame(kindRunSpec)
	appendRunSpecPayload(&e, s)
	return e.b
}

func appendRunSpecPayload(e *enc, s RunSpec) {
	e.str(s.Label)
	e.str(s.Protocol)
	e.str(s.Graph.Kind)
	e.uint(s.Graph.N)
	e.uint(s.Graph.M)
	e.uint(s.Graph.R)
	e.uint(s.Graph.T)
	e.f64(s.Graph.P)
	e.u64(s.Graph.Seed)
	e.u64(s.Seed)
	e.uint(s.Workers)
	e.f64(s.Faults.Drop)
	e.f64(s.Faults.Corrupt)
	e.uint(s.Faults.Flip)
	e.f64(s.Faults.Straggle)
	e.uvarint(uint64(s.Faults.DelayNS))
	e.f64(s.Faults.FbDrop)
	e.f64(s.Faults.FbCorrupt)
	e.u64(s.Faults.Seed)
}

// DecodeRunSpec inverts EncodeRunSpec. It validates only the encoding,
// not the semantics — call Validate before executing.
func DecodeRunSpec(data []byte) (RunSpec, error) {
	payload, err := openFrame(data, kindRunSpec)
	if err != nil {
		return RunSpec{}, err
	}
	d := &dec{b: payload}
	s := decodeRunSpecPayload(d)
	if err := d.done(); err != nil {
		return RunSpec{}, err
	}
	return s, nil
}

func decodeRunSpecPayload(d *dec) RunSpec {
	var s RunSpec
	s.Label = d.str("label")
	s.Protocol = d.str("protocol name")
	s.Graph.Kind = d.str("graph kind")
	s.Graph.N = d.int("graph n")
	s.Graph.M = d.int("graph m")
	s.Graph.R = d.int("graph r")
	s.Graph.T = d.int("graph t")
	s.Graph.P = d.f64()
	s.Graph.Seed = d.u64()
	s.Seed = d.u64()
	s.Workers = d.int("workers")
	s.Faults.Drop = d.f64()
	s.Faults.Corrupt = d.f64()
	s.Faults.Flip = d.int("fault flip count")
	s.Faults.Straggle = d.f64()
	s.Faults.DelayNS = int64(d.uvarint())
	if s.Faults.DelayNS < 0 {
		d.fail("fault delay overflows")
	}
	s.Faults.FbDrop = d.f64()
	s.Faults.FbCorrupt = d.f64()
	s.Faults.Seed = d.u64()
	return s
}

// EncodeBatchSpec serializes a batch of specs as one frame.
func EncodeBatchSpec(specs []RunSpec) []byte {
	size := enc{sizing: true}
	appendBatchSpecPayload(&size, specs)
	e := size.frame(kindBatchSpec)
	appendBatchSpecPayload(&e, specs)
	return e.b
}

func appendBatchSpecPayload(e *enc, specs []RunSpec) {
	e.uint(len(specs))
	for _, s := range specs {
		appendRunSpecPayload(e, s)
	}
}

// DecodeBatchSpec inverts EncodeBatchSpec.
func DecodeBatchSpec(data []byte) ([]RunSpec, error) {
	payload, err := openFrame(data, kindBatchSpec)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	n := d.length("batch spec", 8)
	specs := make([]RunSpec, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		specs = append(specs, decodeRunSpecPayload(d))
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return specs, nil
}
