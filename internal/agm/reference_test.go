package agm

// The scalar sketcher and referee the banked ones (block.go, referee.go)
// replaced, kept as the references they must match.
//
// The sketcher builds one l0.Sketch per (vertex, spec), one Spec.Update
// per incident edge, and serializes it bit by bit with Sketch.Write into
// a pooled writer. block_test.go checks Sketch and SketchBlock against
// it, and engine_bench_test.go times it as the engine's per-vertex
// reference.
//
// The referee reads every vertex's whole stack eagerly, element by
// element through Reader.ReadUint, into one heap sketch per (vertex,
// sampler), and a Borůvka merge adds all of a root's samplers at once.
// Recovery goes through a one-lane bank — l0's tests pin SampleLane to
// the scalar Sample — so what this reference checks is everything
// around it: validation order and error text, round-lazy loading, bank
// reuse, component sums, the skeleton's deletions, and the resilient
// verdicts.

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/graph"
	"repro/internal/l0"
	"repro/internal/rng"
)

// refSketch holds one sampler's cells in serialization order: val, idx
// and fp of level 0, then of level 1, and so on.
type refSketch []field.Elem

var errRefOutOfRange = errors.New("l0: field element out of range")

// refReadSketch reads one sampler element by element, stopping at the
// first short or out-of-range element.
func refReadSketch(sp l0.Spec, r *bitio.Reader) (refSketch, error) {
	sk := make(refSketch, 3*sp.Levels())
	for k := range sk {
		v, err := r.ReadUint(61)
		if err == nil && v >= field.P {
			err = errRefOutOfRange
		}
		if err != nil {
			return nil, fmt.Errorf("l0: level %d: %w", k/3, err)
		}
		sk[k] = field.Elem(v)
	}
	return sk, nil
}

// refReadSketchTolerant reads one sampler in full, zeroing every cell
// that holds a non-canonical element.
func refReadSketchTolerant(sp l0.Spec, r *bitio.Reader) (sk refSketch, valid bool, err error) {
	sk = make(refSketch, 3*sp.Levels())
	valid = true
	for k := 0; k < len(sk); k += 3 {
		cellOK := true
		for c := 0; c < 3; c++ {
			v, err := r.ReadUint(61)
			if err != nil {
				return nil, false, err
			}
			if v >= field.P {
				cellOK = false
				continue
			}
			sk[k+c] = field.Elem(v)
		}
		if !cellOK {
			sk[k], sk[k+1], sk[k+2] = 0, 0, 0
			valid = false
		}
	}
	return sk, valid, nil
}

func (sk refSketch) add(o refSketch) {
	for i := range sk {
		sk[i] = field.Add(sk[i], o[i])
	}
}

func (sk refSketch) isZero() bool {
	for _, e := range sk {
		if e != 0 {
			return false
		}
	}
	return true
}

// checksum is Sketch.Checksum's FNV-1a fold, restated.
func (sk refSketch) checksum() uint32 {
	h := uint64(0xcbf29ce484222325)
	for _, e := range sk {
		v := uint64(e)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x00000100000001b3
			v >>= 8
		}
	}
	return uint32(h) ^ uint32(h>>32)
}

// write serializes the cells bit by bit.
func (sk refSketch) write(w *bitio.Writer) {
	for _, e := range sk {
		w.WriteUint(uint64(e), 61)
	}
}

// refSample recovers one coordinate of the sketched vector.
func refSample(sp l0.Spec, sk refSketch) (uint64, bool) {
	var w bitio.Writer
	sk.write(&w)
	b := l0.NewBank()
	b.Reset(sp.Levels(), 1)
	if err := sp.ReadLane(b, 0, bitio.ReaderFor(&w)); err != nil {
		panic(err)
	}
	idx, _, ok := sp.SampleLane(b, 0)
	return idx, ok
}

// refUpdate adds delta at index to sk, through a scalar Sketch of the
// delta alone (linearity makes the two equal).
func refUpdate(sp l0.Spec, sk refSketch, index uint64, delta int64) {
	d := sp.AcquireSketch()
	sp.Update(d, index, delta)
	var w bitio.Writer
	d.Write(&w)
	l0.ReleaseSketch(d)
	dd, err := refReadSketch(sp, bitio.ReaderFor(&w))
	if err != nil {
		panic(err)
	}
	sk.add(dd)
}

// refWriteIncidenceStack sketches the view's incidence vector under
// every spec, appends the serializations, and — when withChecksum is
// set — returns the folded checksum of the stack, computed from the
// cells as written.
func refWriteIncidenceStack(w *bitio.Writer, sps []l0.Spec, view core.VertexView, withChecksum bool) uint32 {
	var cs uint32
	for _, sp := range sps {
		sk := sp.AcquireSketch()
		for _, u := range view.Neighbors {
			delta := int64(1)
			if view.ID > u {
				delta = -1
			}
			sp.Update(sk, edgeIndex(view.N, view.ID, u), delta)
		}
		start := w.Len()
		sk.Write(w)
		l0.ReleaseSketch(sk)
		if withChecksum {
			r := bitio.ReaderFor(w)
			if err := r.Skip(start); err != nil {
				panic(err)
			}
			cells, err := refReadSketch(sp, r)
			if err != nil {
				panic(err)
			}
			cs = foldChecksum(cs, cells.checksum())
		}
	}
	return cs
}

// refForestSketch is ForestProtocol.Sketch.
func refForestSketch(cfg Config, view core.VertexView, coins *rng.PublicCoins) *bitio.Writer {
	w := &bitio.Writer{}
	w.Grow(NewSpanningForest(cfg).SketchBits(view.N, coins))
	cfg = cfg.withDefaults(view.N)
	if cfg.BackupReps > 0 {
		pcs := refWriteIncidenceStack(w, specs(view.N, cfg, coins), view, true)
		w.WriteUint(uint64(pcs), 32)
		bcs := refWriteIncidenceStack(w, backupSpecs(view.N, cfg, coins), view, true)
		w.WriteUint(uint64(bcs), 32)
	} else {
		refWriteIncidenceStack(w, specs(view.N, cfg, coins), view, false)
	}
	return w
}

// refSkeletonSketch is SkeletonProtocol.Sketch.
func refSkeletonSketch(p *SkeletonProtocol, view core.VertexView, coins *rng.PublicCoins) *bitio.Writer {
	w := &bitio.Writer{}
	w.Grow(p.SketchBits(view.N, coins))
	_, groups := p.groupSpecs(view.N, coins)
	for _, sps := range groups {
		refWriteIncidenceStack(w, sps, view, false)
	}
	return w
}

func refZeroStack(sps []l0.Spec) []refSketch {
	stack := make([]refSketch, len(sps))
	for i, sp := range sps {
		stack[i] = make(refSketch, 3*sp.Levels())
	}
	return stack
}

// refReadVertexSketches deserializes every vertex's sampler stack.
func refReadVertexSketches(n int, sps []l0.Spec, sketches []*bitio.Reader) ([][]refSketch, error) {
	perVertex := make([][]refSketch, n)
	for v := 0; v < n; v++ {
		perVertex[v] = make([]refSketch, len(sps))
		for i, sp := range sps {
			sk, err := refReadSketch(sp, sketches[v])
			if err != nil {
				return nil, fmt.Errorf("agm: vertex %d sampler %d: %w", v, i, err)
			}
			perVertex[v][i] = sk
		}
	}
	return perVertex, nil
}

// refBoruvka recovers a spanning forest from per-vertex sampler stacks,
// merging whole stacks as components join. It consumes perVertex.
func refBoruvka(n int, cfg Config, sps []l0.Spec, perVertex [][]refSketch) []graph.Edge {
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
	comp := perVertex
	var forest []graph.Edge
	for round := 0; round < cfg.Rounds; round++ {
		var roots []int
		for v := 0; v < n; v++ {
			if find(v) == v {
				roots = append(roots, v)
			}
		}
		if len(roots) == 1 {
			break
		}
		merged := false
		for _, root := range roots {
			if find(root) != root {
				continue
			}
			for rep := 0; rep < cfg.Reps; rep++ {
				i := round*cfg.Reps + rep
				idx, ok := refSample(sps[i], comp[root][i])
				if !ok {
					continue
				}
				e, err := edgeFromIndex(n, idx)
				if err != nil {
					continue
				}
				ru, rv := find(e.U), find(e.V)
				if ru == rv {
					continue
				}
				forest = append(forest, e)
				parent[rv] = ru
				for j := range comp[ru] {
					comp[ru][j].add(comp[rv][j])
				}
				comp[rv] = nil
				merged = true
				break
			}
		}
		if !merged && round > 0 {
			allZero := true
			for _, root := range roots {
				if find(root) == root && !comp[root][round*cfg.Reps].isZero() {
					allZero = false
					break
				}
			}
			if allZero {
				break
			}
		}
	}
	return forest
}

// refForestDecode is ForestProtocol.Decode.
func refForestDecode(cfg Config, n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, error) {
	cfg = cfg.withDefaults(n)
	sps := specs(n, cfg, coins)
	perVertex, err := refReadVertexSketches(n, sps, sketches)
	if err != nil {
		return nil, err
	}
	return refBoruvka(n, cfg, sps, perVertex), nil
}

// refSkeletonPeel deletes each forest's edges from the later groups and
// runs Borůvka group by group.
func refSkeletonPeel(n int, cfgs []Config, groups [][]l0.Spec, perGroup [][][]refSketch) []graph.Edge {
	var certificate []graph.Edge
	for g, sps := range groups {
		for _, e := range certificate {
			idx := edgeIndex(n, e.U, e.V)
			for i, sp := range sps {
				refUpdate(sp, perGroup[g][e.U][i], idx, -1)
				refUpdate(sp, perGroup[g][e.V][i], idx, +1)
			}
		}
		certificate = append(certificate, refBoruvka(n, cfgs[g], sps, perGroup[g])...)
	}
	return certificate
}

// refSkeletonDecode is SkeletonProtocol.Decode.
func refSkeletonDecode(p *SkeletonProtocol, n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, error) {
	cfgs, groups := p.groupSpecs(n, coins)
	perGroup := make([][][]refSketch, p.K)
	for g, sps := range groups {
		pv, err := refReadVertexSketches(n, sps, sketches)
		if err != nil {
			return nil, fmt.Errorf("agm: skeleton group %d: %w", g, err)
		}
		perGroup[g] = pv
	}
	return refSkeletonPeel(n, cfgs, groups, perGroup), nil
}

func refReadStackTolerant(r *bitio.Reader, sps []l0.Spec) (stack []refSketch, valid bool, err error) {
	stack = make([]refSketch, len(sps))
	valid = true
	for i, sp := range sps {
		sk, ok, err := refReadSketchTolerant(sp, r)
		if err != nil {
			return nil, false, err
		}
		valid = valid && ok
		stack[i] = sk
	}
	return stack, valid, nil
}

func refStackChecksum(stack []refSketch) uint32 {
	var h uint32
	for _, sk := range stack {
		h = foldChecksum(h, sk.checksum())
	}
	return h
}

func refReadResilientVertex(r *bitio.Reader, cfg Config, sps, bsps []l0.Spec) (primary, backup []refSketch, pGood, bGood bool) {
	if r == nil || r.Remaining() == 0 {
		return nil, nil, false, false
	}
	stack, ok, err := refReadStackTolerant(r, sps)
	if err != nil {
		return nil, nil, false, false
	}
	primary, pGood = stack, ok
	if cfg.BackupReps == 0 {
		return primary, nil, pGood, false
	}
	cs, err := r.ReadUint(32)
	if err != nil {
		return primary, nil, false, false
	}
	if uint32(cs) != refStackChecksum(stack) {
		pGood = false
	}
	bstack, bok, err := refReadStackTolerant(r, bsps)
	if err != nil {
		return primary, nil, pGood, false
	}
	bcs, err := r.ReadUint(32)
	if err != nil || uint32(bcs) != refStackChecksum(bstack) {
		bok = false
	}
	return primary, bstack, pGood, bok
}

// refForestDecodeResilient is ForestProtocol.DecodeResilient.
func refForestDecodeResilient(cfg Config, n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, core.Resilience) {
	cfg = cfg.withDefaults(n)
	sps := specs(n, cfg, coins)
	var bsps []l0.Spec
	if cfg.BackupReps > 0 {
		bsps = backupSpecs(n, cfg, coins)
	}
	primary := make([][]refSketch, n)
	backup := make([][]refSketch, n)
	pBad, bBad := 0, 0
	for v := 0; v < n; v++ {
		pv, bv, pGood, bGood := refReadResilientVertex(sketches[v], cfg, sps, bsps)
		if pGood {
			primary[v] = pv
		} else {
			pBad++
		}
		if bGood {
			backup[v] = bv
		} else {
			bBad++
		}
	}
	if pBad == 0 {
		return refBoruvka(n, cfg, sps, primary), core.ResilienceOK
	}
	stacks, useSps, useCfg, holes := primary, sps, cfg, pBad
	if cfg.BackupReps > 0 && bBad < pBad {
		useCfg.Reps = cfg.BackupReps
		stacks, useSps, holes = backup, bsps, bBad
	}
	for v := 0; v < n; v++ {
		if stacks[v] == nil {
			stacks[v] = refZeroStack(useSps)
		}
	}
	verdict := core.ResilienceDegraded
	if 2*holes > n {
		verdict = core.ResilienceFailed
	}
	return refBoruvka(n, useCfg, useSps, stacks), verdict
}

// refSkeletonDecodeResilient is SkeletonProtocol.DecodeResilient.
func refSkeletonDecodeResilient(p *SkeletonProtocol, n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, core.Resilience) {
	cfgs, groups := p.groupSpecs(n, coins)
	perGroup := make([][][]refSketch, p.K)
	for g := range perGroup {
		perGroup[g] = make([][]refSketch, n)
	}
	holes := 0
	for v := 0; v < n; v++ {
		r := sketches[v]
		good := r != nil && r.Remaining() > 0
		var stacks [][]refSketch
		if good {
			stacks = make([][]refSketch, p.K)
			for g, sps := range groups {
				stack, ok, err := refReadStackTolerant(r, sps)
				if err != nil || !ok {
					good = false
					break
				}
				stacks[g] = stack
			}
			if good && r.Remaining() != 0 {
				good = false
			}
		}
		for g, sps := range groups {
			if good {
				perGroup[g][v] = stacks[g]
			} else {
				perGroup[g][v] = refZeroStack(sps)
			}
		}
		if !good {
			holes++
		}
	}
	certificate := refSkeletonPeel(n, cfgs, groups, perGroup)
	switch {
	case holes == 0:
		return certificate, core.ResilienceOK
	case 2*holes > n:
		return certificate, core.ResilienceFailed
	default:
		return certificate, core.ResilienceDegraded
	}
}
