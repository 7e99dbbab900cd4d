package agm

// This file is the referee-side graceful-degradation layer for the AGM
// protocols (DESIGN.md § fault model). Each DecodeResilient detects
// missing (zero-bit) and garbled per-vertex sketches from the message
// contents alone — tolerant fixed-width parsing keeps sections aligned,
// field-range checks catch most corruption, and the BackupReps checksums
// catch in-range bit flips — then decodes a best-effort output from the
// surviving material, reporting a core.Resilience verdict. The contract:
// ResilienceOK is returned only when every sketch parsed perfectly.

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/l0"
	"repro/internal/rng"
)

var (
	_ core.ResilientProtocol[[]graph.Edge] = (*ForestProtocol)(nil)
	_ core.ResilientProtocol[[]graph.Edge] = (*SkeletonProtocol)(nil)
	_ core.ResilientProtocol[graph.Edge]   = (*BridgeProtocol)(nil)
)

// backupSpecs derives the fallback sampler stack from a coin subtree
// disjoint from the primary one, so backup samplers are fully independent
// re-derived ℓ₀ instances. Memoized like specs (speccache.go): the
// disjoint "agm-backup" subtree seed keys a separate cache entry.
func backupSpecs(n int, cfg Config, coins *rng.PublicCoins) []l0.Spec {
	return derivedSpecs(uint64(n)*uint64(n), cfg.Rounds*cfg.BackupReps, coins.Derive("agm-backup"))
}

// foldChecksum chains per-sketch checksums into a stack checksum.
func foldChecksum(h, cs uint32) uint32 { return h*0x01000193 ^ cs }

// checkStackTolerant reads one sampler stack tolerantly, always
// consuming exactly the stack's fixed bit size so that whatever follows
// (checksums, backup stacks) stays aligned. valid reports whether every
// element was canonical; err is non-nil only when the message is too
// short. With withChecksum the stack goes through lane 0 of the bank to
// fold its checksum over the cells as read, damaged cells zeroed.
func (st *stacks) checkStackTolerant(r *bitio.Reader, sps []l0.Spec, withChecksum bool) (cs uint32, valid bool, err error) {
	if r.Remaining() < stackBits(sps) {
		return 0, false, bitio.ErrShortMessage
	}
	if !withChecksum {
		return 0, readCanonical(r, st.scratch(len(sps))), nil
	}
	valid = true
	for _, sp := range sps {
		ok, _ := sp.ReadLaneTolerant(st.bank, 0, r) // cannot run short: length checked above
		valid = valid && ok
		cs = foldChecksum(cs, st.bank.LaneChecksum(0))
	}
	return cs, valid, nil
}

// checkResilientVertex parses one vertex's forest message: the primary
// stack, and under BackupReps the two checksums and the backup stack,
// reporting which stacks are usable. A short message (drops, truncation)
// yields neither stack; corruption preserves length, so a damaged
// primary still leaves the backup section readable at its fixed offset.
func (st *stacks) checkResilientVertex(r *bitio.Reader, cfg Config, sps, bsps []l0.Spec) (pGood, bGood bool) {
	if r == nil || r.Remaining() == 0 {
		return false, false
	}
	backup := cfg.BackupReps > 0
	pcs, pGood, err := st.checkStackTolerant(r, sps, backup)
	if err != nil || !backup {
		return err == nil && pGood, false
	}
	cs, err := r.ReadUint(32)
	if err != nil {
		return false, false
	}
	if uint32(cs) != pcs {
		pGood = false
	}
	bcs, bGood, err := st.checkStackTolerant(r, bsps, true)
	if err != nil {
		return pGood, false
	}
	if cs, err := r.ReadUint(32); err != nil || uint32(cs) != bcs {
		bGood = false
	}
	return pGood, bGood
}

// DecodeResilient implements core.ResilientProtocol for the spanning
// forest. Strategy: when every primary stack is intact, decode exactly as
// Decode does and report ok. Otherwise pick whichever stack family
// (primary, or the re-derived backup samplers when BackupReps > 0) lost
// fewer vertices, read the losses as zero sketches, and run Borůvka over
// the survivors — a degraded forest that may miss the damaged vertices.
// When more than half the vertices are unusable the verdict is failed
// (the best-effort forest is still returned).
func (p *ForestProtocol) DecodeResilient(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, core.Resilience, error) {
	cfg := p.cfg.withDefaults(n)
	sps := specs(n, cfg, coins)
	var bsps []l0.Spec
	if cfg.BackupReps > 0 {
		bsps = backupSpecs(n, cfg, coins)
	}

	st := newStacks(n, sps, cfg.Reps)
	pHole, bHole := make([]bool, n), make([]bool, n)
	pBad, bBad := 0, 0
	for v := 0; v < n; v++ {
		if r := sketches[v]; r != nil {
			st.starts[v] = *r
		}
		pGood, bGood := st.checkResilientVertex(sketches[v], cfg, sps, bsps)
		if !pGood {
			pHole[v] = true
			pBad++
		}
		if !bGood {
			bHole[v] = true
			bBad++
		}
	}

	if pBad == 0 {
		forest, err := boruvka(cfg.Rounds, st)
		if err != nil {
			return nil, core.ResilienceFailed, err
		}
		return forest, core.ResilienceOK, nil
	}

	st.hole = pHole
	holes := pBad
	if cfg.BackupReps > 0 && bBad < pBad {
		st.sps, st.reps, st.offset, st.hole = bsps, cfg.BackupReps, stackBits(sps)+32, bHole
		holes = bBad
	}
	verdict := core.ResilienceDegraded
	if 2*holes > n {
		verdict = core.ResilienceFailed
	}
	forest, err := boruvka(cfg.Rounds, st)
	if err != nil {
		return nil, core.ResilienceFailed, err
	}
	return forest, verdict, nil
}

// DecodeResilient implements core.ResilientProtocol for the k-forest
// skeleton. The skeleton encoding carries no checksums or backup stack;
// resilience is limited to tolerant parsing — a vertex whose message is
// missing, truncated, holds non-canonical field elements or carries
// trailing bits is read as zero sketches in every group — so in-range
// bit flips can go undetected here (faults.Run's channel record still
// demotes such runs).
func (p *SkeletonProtocol) DecodeResilient(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, core.Resilience, error) {
	if p.K < 1 {
		return nil, core.ResilienceFailed, fmt.Errorf("agm: skeleton needs K >= 1, got %d", p.K)
	}
	cfgs, groups := p.groupSpecs(n, coins)
	st := newStacks(n, groups[0], cfgs[0].Reps)
	st.hole = make([]bool, n)
	holes := 0
	for v := 0; v < n; v++ {
		r := sketches[v]
		good := r != nil && r.Remaining() > 0
		if good {
			st.starts[v] = *r
			for _, sps := range groups {
				if _, valid, err := st.checkStackTolerant(r, sps, false); err != nil || !valid {
					good = false
					break
				}
			}
			if good && r.Remaining() != 0 {
				good = false // trailing garbage: treat the vertex as damaged
			}
		}
		if !good {
			st.hole[v] = true
			holes++
		}
	}

	certificate, err := p.peel(cfgs, groups, st)
	if err != nil {
		return certificate, core.ResilienceFailed, err
	}
	switch {
	case holes == 0:
		return certificate, core.ResilienceOK, nil
	case 2*holes > n:
		return certificate, core.ResilienceFailed, nil
	default:
		return certificate, core.ResilienceDegraded, nil
	}
}

// DecodeResilient implements core.ResilientProtocol for the bridge
// finder. Vertices whose sketches are missing or unparsable are excluded
// from the sampled graph and marked damaged; recoverBridge then only
// trusts cut sums over fully clean sides — the signed sums total zero
// over all vertices, so any cut can be summed from whichever shore
// survived intact (the re-derived fallback the encoding supports for
// free). If every decodable side holds damage, the decode fails.
func (p *BridgeProtocol) DecodeResilient(n int, sketches []*bitio.Reader, _ *rng.PublicCoins) (graph.Edge, core.Resilience, error) {
	idWidth := bitio.UintWidth(n)
	sampledBuilder := graph.NewBuilder(n)
	sums := make([]int64, n)
	damaged := make([]bool, n)
	anomalies := 0
	for v := 0; v < n; v++ {
		r := sketches[v]
		if r == nil || r.Remaining() == 0 {
			damaged[v] = true
			continue
		}
		k, err := r.ReadUvarint()
		if err != nil {
			damaged[v] = true
			continue
		}
		parsed := true
		for i := uint64(0); i < k; i++ {
			u, err := r.ReadUint(idWidth)
			if err != nil {
				damaged[v] = true
				parsed = false
				break
			}
			if int(u) < n && int(u) != v {
				sampledBuilder.AddEdge(v, int(u))
			} else {
				anomalies++ // invalid sampled neighbor: note it, keep going
			}
		}
		if !parsed {
			continue
		}
		neg, err := r.ReadBit()
		if err != nil {
			damaged[v] = true
			continue
		}
		mag, err := r.ReadUvarint()
		if err != nil {
			damaged[v] = true
			continue
		}
		if r.Remaining() != 0 {
			anomalies++ // longer than its own header declared
		}
		sums[v] = int64(mag)
		if neg {
			sums[v] = -sums[v]
		}
	}

	holes := 0
	for _, d := range damaged {
		if d {
			holes++
		}
	}
	e, err := recoverBridge(n, sampledBuilder.Build(), sums, damaged)
	if err != nil {
		return graph.Edge{}, core.ResilienceFailed, err
	}
	if holes == 0 && anomalies == 0 {
		return e, core.ResilienceOK, nil
	}
	return e, core.ResilienceDegraded, nil
}
