package agm

// The banked, round-lazy referee shared by the forest, skeleton and
// resilient decoders. A decode runs in two passes over the messages:
//
//  1. Validate. Every element of every message is read once, in message
//     order: a vertex's whole stack in one bulk 61-bit unpack and a
//     branch-free range check. A rejected stack is re-read through l0's
//     lane reader, so the rejections — a short message, an out-of-range
//     element, even in a round Borůvka never reaches — and their error
//     text are exactly the element-at-a-time reader's. The resilient
//     decoders compute their checksums and damage verdicts here.
//  2. Borůvka. A round's Reps samplers are unpacked for all n vertices
//     only when Borůvka reaches that round (typically 4–6 of 18–24), into
//     one bank reused from round to round (lane rep·n + v). Each vertex
//     is then summed into its component root with Bank.AddLane, and a
//     merge inside the round adds the two roots' lanes. By linearity the
//     root lanes hold exactly the merged sketches the eager scalar
//     referee carried, so samples, merges and the forest are unchanged.

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/l0"
)

// stacks locates one sampler stack per vertex for the lazy Borůvka pass
// and owns the bank the pass reads rounds into.
type stacks struct {
	n, reps int
	sps     []l0.Spec
	// starts[v] is vertex v's message reader positioned where its first
	// stack begins; this family's stack starts offset bits later.
	starts []bitio.Reader
	offset int
	// hole marks vertices whose stack is unusable; their lanes stay zero.
	// Linearly that is a vertex whose incidence vector is zero: its edges
	// survive un-cancelled in its neighbours' sketches, so they remain
	// recoverable, but the forest may no longer reach the vertex itself.
	// nil means every vertex is read.
	hole []bool
	// removed lists edges subtracted from every loaded sampler: the
	// skeleton's earlier forests.
	removed []graph.Edge
	bank    *l0.Bank
	upd     l0.BlockUpdates
	raw     []uint64 // one stack's elements, for validation
}

// newStacks returns the Borůvka source for an n-vertex decode of the
// given stack, with the bank sized for a round of reps samplers.
func newStacks(n int, sps []l0.Spec, reps int) *stacks {
	st := &stacks{n: n, reps: reps, sps: sps, starts: make([]bitio.Reader, n), bank: l0.NewBank()}
	st.bank.Reset(sps[0].Levels(), reps*n)
	return st
}

// samplerBits returns the serialized size of one sampler of a stack (the
// specs of one stack share a universe, hence a level count).
func samplerBits(sps []l0.Spec) int { return sps[0].Levels() * 3 * bitio.Uint61Width }

// readCanonical unpacks the next len(raw) elements into raw and reports
// whether all of them were present and canonical. Elements are 61-bit,
// so the only non-canonical value is p = 2^61 − 1 itself, the one whose
// successor sets bit 61. A short read consumes nothing.
func readCanonical(r *bitio.Reader, raw []uint64) bool {
	if r.ReadUint61s(raw) != nil {
		return false
	}
	var acc uint64
	for _, e := range raw {
		acc |= e + 1
	}
	return acc>>bitio.Uint61Width == 0
}

// checkStacks validates one stack per vertex, in vertex order, leaving
// every validated reader just past its stack. A stack is checked in one
// bulk read; a rejected one is re-read sampler by sampler through lane 0
// of the bank, which stops at its first bad element with the scalar
// reader's error text.
func (st *stacks) checkStacks(sps []l0.Spec, sketches []*bitio.Reader) error {
	raw := st.scratch(len(sps))
	for v, r := range sketches {
		at := *r
		if readCanonical(r, raw) {
			continue
		}
		for i, sp := range sps {
			if err := sp.ReadLane(st.bank, 0, &at); err != nil {
				return fmt.Errorf("agm: vertex %d sampler %d: %w", v, i, err)
			}
		}
		panic("agm: a stack rejected in bulk read clean sampler by sampler")
	}
	return nil
}

// scratch returns a buffer for the elements of a stack of the given
// number of samplers, reused across calls.
func (st *stacks) scratch(samplers int) []uint64 {
	n := samplers * 3 * st.sps[0].Levels()
	if cap(st.raw) < n {
		st.raw = make([]uint64, n)
	}
	return st.raw[:n]
}

// load fills the bank with the given round's samplers of every usable
// vertex, subtracts the removed edges, and sums each vertex into its
// component root.
func (st *stacks) load(round int, find func(int) int) error {
	n := st.n
	st.bank.Reset(st.sps[0].Levels(), st.reps*n)
	per := samplerBits(st.sps)
	for rep := 0; rep < st.reps; rep++ {
		i := round*st.reps + rep
		sp := st.sps[i]
		lane0 := rep * n
		for v := 0; v < n; v++ {
			if st.hole != nil && st.hole[v] {
				continue
			}
			r := st.starts[v]
			if err := r.Skip(st.offset + i*per); err != nil {
				return err
			}
			if err := sp.ReadLane(st.bank, lane0+v, &r); err != nil {
				return err
			}
		}
		if len(st.removed) > 0 {
			// Edge (u,v), u < v, contributed +1 at u and −1 at v.
			st.upd.Reset()
			for _, e := range st.removed {
				idx := edgeIndex(n, e.U, e.V)
				st.upd.Add(lane0+e.U, idx, true)
				st.upd.Add(lane0+e.V, idx, false)
			}
			sp.UpdateBlock(st.bank, &st.upd)
		}
		for v := 0; v < n; v++ {
			if root := find(v); root != v {
				st.bank.AddLane(lane0+root, lane0+v)
			}
		}
	}
	return nil
}

// boruvka recovers a spanning forest from the stacks, merging component
// sketches as components join.
func boruvka(rounds int, st *stacks) ([]graph.Edge, error) {
	n, reps := st.n, st.reps
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	var forest []graph.Edge
	roots := make([]int, 0, n)
	for round := 0; round < rounds; round++ {
		roots = roots[:0]
		for v := 0; v < n; v++ {
			if find(v) == v {
				roots = append(roots, v)
			}
		}
		if len(roots) == 1 {
			break
		}
		if err := st.load(round, find); err != nil {
			return nil, err
		}
		merged := false
		for _, root := range roots {
			if find(root) != root {
				continue // merged earlier this round
			}
			for rep := 0; rep < reps; rep++ {
				idx, _, ok := st.sps[round*reps+rep].SampleLane(st.bank, rep*n+root)
				if !ok {
					continue
				}
				e, err := edgeFromIndex(n, idx)
				if err != nil {
					continue // fingerprint slip; treat as failed sample
				}
				ru, rv := find(e.U), find(e.V)
				if ru == rv {
					continue // stale or internal (should have cancelled)
				}
				forest = append(forest, e)
				parent[rv] = ru
				for r := 0; r < reps; r++ {
					st.bank.AddLane(r*n+ru, r*n+rv)
				}
				merged = true
				break
			}
		}
		if !merged && round > 0 {
			// No component can make progress with this round's samplers;
			// later rounds use fresh ones, so keep going unless every
			// component's boundary is empty (forest complete).
			allZero := true
			for _, root := range roots {
				if find(root) == root && !st.bank.LaneIsZero(root) {
					allZero = false
					break
				}
			}
			if allZero {
				break
			}
		}
	}
	return forest, nil
}
