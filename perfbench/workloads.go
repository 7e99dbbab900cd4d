package main

// Workload definitions. Every spec a run sends is a pure function of the
// benchmark seed and the request's index, so a seed names the exact
// traffic; the daemon only ever receives the generated spec frames.

import (
	"fmt"

	"repro/internal/wire"
)

// workload is one traffic mix against a freshly launched daemon.
type workload struct {
	name string
	// conns is the number of closed-loop connections: each sends its
	// next request only after the previous reply, like the service's
	// real callers. At most nproc = 2, the daemon's slot count.
	conns int
	// batch sends /v1/batch frames instead of /v1/run frames.
	batch bool
	// hits marks the workloads whose timed traffic must be served
	// entirely from the result cache; the others must never hit it.
	hits bool
	// cacheBytes is the daemon's result-cache budget. Hit workloads get
	// one that never evicts their working set. Miss workloads get one
	// small enough that set-up already fills it, so every timed write
	// evicts and the cache's footprint does not grow with the number of
	// requests a faster build completes.
	cacheBytes int64
	// fixed is the number of leading timed requests over which a miss
	// workload's exact transcript counts are taken (hit workloads use
	// their working set), so they do not depend on how many requests a
	// run completes.
	fixed int
	plan  func(seed uint64) plan
}

// plan is a seeded workload instance.
type plan struct {
	// warm lists the set-up requests, in order. For hit workloads it is
	// the working set twice: the first pass executes and caches, the
	// second confirms each entry is served from the cache.
	warm []request
	// working is the hit workloads' working set; timed request i is
	// working[i % len(working)].
	working []wire.RunSpec
	// next returns timed request i.
	next func(i int) request
}

// request is one HTTP request: a single spec for /v1/run, or a batch.
type request []wire.RunSpec

// shape is a protocol on a sized graph family; seeds are filled per spec.
type shape struct {
	protocol string
	graph    wire.GraphSpec
	faulted  bool
}

func gnp(n int, p float64) wire.GraphSpec { return wire.GraphSpec{Kind: "gnp", N: n, P: p} }

// gnpDeg is a G(n,p) family with average degree deg.
func gnpDeg(n int, deg float64) wire.GraphSpec { return gnp(n, deg/float64(n-1)) }

// Seed streams. A spec's seeds mix the benchmark seed with its stream
// and index, so distinct (stream, index) pairs never share a cache key.
const (
	streamWorking byte = 'w'
	streamWarm    byte = 'u'
	streamTimed   byte = 't'
)

// mix is the splitmix64 finalizer: a bijection on uint64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// specSeed is injective in (stream, i) for a fixed benchmark seed: the
// stream tag and index occupy disjoint bits before the bijective mix.
func specSeed(seed uint64, stream byte, i int) uint64 {
	return mix(mix(seed) ^ uint64(stream)<<56 ^ uint64(i))
}

// specFor instantiates shape s as spec i of a stream. Every spec pins
// Workers = 1 so that no figure rests on parallel speed-up inside one
// execution.
func specFor(seed uint64, stream byte, i int, s shape) wire.RunSpec {
	ps := specSeed(seed, stream, i)
	g := s.graph
	g.Seed = mix(ps ^ 0x67)
	spec := wire.RunSpec{
		Label:    fmt.Sprintf("%c%d-%s", stream, i, s.protocol),
		Protocol: s.protocol,
		Graph:    g,
		Seed:     ps,
		Workers:  1,
	}
	if s.faulted {
		// Only drops and corruption: straggler delays would time the OS
		// timer, not the program. Faulted shapes are restricted to the
		// protocols with resilient decoders (see missShapes).
		spec.Faults = wire.FaultSpec{Drop: 0.1, Corrupt: 0.1, Flip: 2, FbDrop: 0.25, FbCorrupt: 0.25, Seed: mix(ps ^ 0xfa)}
	}
	return spec
}

// hitSmallShapes are the small-transcript protocols at smoke sizes;
// every frame stays under 2 KB, so the fixed per-request path dominates.
var hitSmallShapes = []shape{
	{protocol: "mm-tworound", graph: gnp(50, 0.3)},
	{protocol: "mis-tworound", graph: gnp(50, 0.25)},
	{protocol: "semistream-matching", graph: gnp(40, 0.25)},
	{protocol: "palette-sparsification", graph: gnp(40, 0.2)},
	{protocol: "triangle-count-sketch", graph: gnp(40, 0.3)},
	{protocol: "densest-subgraph-sketch", graph: gnp(40, 0.3)},
	{protocol: "degeneracy-sketch", graph: gnp(40, 0.3)},
	{protocol: "equality-public-coin", graph: gnp(40, 0.3)},
}

// hitLargeShapes are the AGM family, whose multi-megabyte transcripts
// make the report codec, the digest and the transfer dominate a hit.
// Each size gives a frame of about 2 MB, so every hit costs about the
// same and p50 and p90 fall inside one cluster instead of between
// protocols; it also keeps a 10-second run above 150 requests. Frames of
// 0.3 and 0.5 MB were tried: they lost as much speed to the VM's stolen
// time as these do (README.md, Stability), so the larger frames stay.
var hitLargeShapes = []shape{
	{protocol: "agm-forest", graph: gnpDeg(100, 8)},
	{protocol: "agm-forest-backup", graph: gnpDeg(64, 8)},
	{protocol: "agm-skeleton", graph: gnpDeg(64, 8)},
	{protocol: "agm-components", graph: gnpDeg(100, 8)},
	{protocol: "mst-weight", graph: gnpDeg(140, 8)},
	{protocol: "agm-cut-sparsifier", graph: gnpDeg(140, 8)},
}

// missShapes mixes the multi-round protocols (one on a dynamic-stream
// graph) with the small one-round sketchers. Sizes are chosen so that
// every shape costs within about 2x of every other: with wider gaps the
// p50 and p90 can fall between protocol clusters and jump from seed to
// seed. Faults go only to mm-tworound, mis-tworound and
// semistream-matching, whose decoders are resilient; the strict decoders
// of palette, triangle, densest and degeneracy fail by design on a
// dropped message ("bitio: read past end of message").
var missShapes = []shape{
	{protocol: "mm-tworound", graph: gnp(400, 0.025)},
	{protocol: "mis-tworound", graph: gnp(400, 0.025)},
	{protocol: "semistream-matching", graph: gnp(110, 0.04)},
	{protocol: "semistream-matching", graph: wire.GraphSpec{Kind: "dyn-churn", N: 120, M: 4, R: 120, T: 240, P: 0.3}},
	{protocol: "palette-sparsification", graph: gnp(450, 0.02)},
	{protocol: "triangle-count-sketch", graph: gnp(650, 0.015)},
	{protocol: "densest-subgraph-sketch", graph: gnp(550, 0.016)},
	{protocol: "degeneracy-sketch", graph: gnp(700, 0.013)},
	{protocol: "equality-public-coin", graph: gnp(1500, 0.005)},
	{protocol: "mm-tworound", graph: gnp(350, 0.025), faulted: true},
	{protocol: "mis-tworound", graph: gnp(350, 0.025), faulted: true},
	{protocol: "semistream-matching", graph: gnp(90, 0.045), faulted: true},
}

// batchShapes are the AGM-family sketchers at average degree 8: the
// first three take the l0.Bank block path, mst-weight and
// agm-cut-sparsifier the scalar Spec.Update path. Sizes even out the
// per-batch cost across shapes.
var batchShapes = []shape{
	{protocol: "agm-forest", graph: gnpDeg(256, 8)},
	{protocol: "agm-components", graph: gnpDeg(288, 8)},
	{protocol: "agm-skeleton", graph: gnpDeg(160, 8)},
	{protocol: "mst-weight", graph: gnpDeg(220, 8)},
	{protocol: "agm-cut-sparsifier", graph: gnpDeg(120, 8)},
}

// batchSize is the number of specs per /v1/batch request: one per core
// of the 2-core target, so the daemon's batch pool has a job per worker.
const batchSize = 2

// hitPlan builds a working set of variants copies of each shape.
func hitPlan(seed uint64, shapes []shape, variants int) plan {
	var ws []wire.RunSpec
	for v := 0; v < variants; v++ {
		for _, s := range shapes {
			ws = append(ws, specFor(seed, streamWorking, len(ws), s))
		}
	}
	var warm []request
	for pass := 0; pass < 2; pass++ {
		for _, s := range ws {
			warm = append(warm, request{s})
		}
	}
	return plan{
		warm:    warm,
		working: ws,
		next:    func(i int) request { return request{ws[i%len(ws)]} },
	}
}

// missPlan sends one never-seen spec per request, cycling the shapes.
func missPlan(seed uint64, warmN int) plan {
	one := func(stream byte, i int) request {
		return request{specFor(seed, stream, i, missShapes[i%len(missShapes)])}
	}
	var warm []request
	for i := 0; i < warmN; i++ {
		warm = append(warm, one(streamWarm, i))
	}
	return plan{warm: warm, next: func(i int) request { return one(streamTimed, i) }}
}

// batchPlan sends batches of never-seen specs; batch i holds batchSize
// variants of shape i % len(batchShapes).
func batchPlan(seed uint64, warmN int) plan {
	one := func(stream byte, i int) request {
		s := batchShapes[i%len(batchShapes)]
		r := make(request, batchSize)
		for k := range r {
			r[k] = specFor(seed, stream, i*batchSize+k, s)
		}
		return r
	}
	var warm []request
	for i := 0; i < warmN; i++ {
		warm = append(warm, one(streamWarm, i))
	}
	return plan{warm: warm, next: func(i int) request { return one(streamTimed, i) }}
}

var workloads = []*workload{
	// The fixed per-request path dominates: HTTP, spec decode, validate,
	// cache key and lookup, re-frame, the hit-path re-decode, the log
	// digest and the client decode.
	{
		name:  "hit-small",
		conns: 2, hits: true, cacheBytes: 1 << 30,
		plan: func(seed uint64) plan { return hitPlan(seed, hitSmallShapes, 4) },
	},
	// The transcript codec, the digest and the transfer dominate; the
	// engine does no work.
	{
		name:  "hit-large",
		conns: 2, hits: true, cacheBytes: 1 << 30,
		plan: func(seed uint64) plan { return hitPlan(seed, hitLargeShapes, 1) },
	},
	// Graph build, engine rounds and feedback, protocol logic, decode
	// and verify, small-transcript encoding and evicting cache writes
	// dominate; frames are 2-25 KB, so the codec is negligible.
	{
		name:  "miss-mixed",
		conns: 2, cacheBytes: 256 << 10, fixed: 2 * len(missShapes),
		plan: func(seed uint64) plan { return missPlan(seed, 8*len(missShapes)) },
	},
	// The only place the sketch kernels and Boruvka decode dominate: a
	// batch carries no transcripts, so encoding never outweighs them.
	{
		name:  "sketch-batch",
		conns: 1, batch: true, cacheBytes: 2 << 10, fixed: len(batchShapes),
		plan: func(seed uint64) plan { return batchPlan(seed, len(batchShapes)) },
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fixedRequests returns the leading requests the exact counts cover: the
// working set for hit workloads, the first fixed timed requests otherwise.
func (w *workload) fixedRequests(p plan) []request {
	if w.hits {
		out := make([]request, len(p.working))
		for i, s := range p.working {
			out[i] = request{s}
		}
		return out
	}
	out := make([]request, w.fixed)
	for i := range out {
		out[i] = p.next(i)
	}
	return out
}
