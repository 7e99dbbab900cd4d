// Package equality implements the neighborhood-equality problem in the
// distributed sketching model, exhibiting the randomness hierarchy that
// Becker et al. [18] study and the paper's related-work section cites:
// with public coins the problem costs O(log n) bits, with private coins
// Θ(√n·polylog) (the Babai–Kimmel simultaneous-messages bound), and
// deterministically Θ(n).
//
// Problem: do vertices 0 and 1 have the same neighborhood outside each
// other? Formally, with s_v ∈ {0,1}^(n-2) the adjacency row of v
// restricted to [2, n), decide s_0 = s_1. Only players 0 and 1 speak.
package equality

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/rng"
)

// restrictedRow returns s_v for the speaking players, nil otherwise. The
// problem compares vertices 0 and 1, so a graph with fewer than two
// vertices is an error.
func restrictedRow(view core.VertexView) ([]bool, error) {
	if view.N < 2 {
		return nil, fmt.Errorf("equality: need n >= 2 to compare vertices 0 and 1, got n = %d", view.N)
	}
	if view.ID > 1 {
		return nil, nil
	}
	row := make([]bool, view.N-2)
	for _, u := range view.Neighbors {
		if u >= 2 {
			row[u-2] = true
		}
	}
	return row, nil
}

// Deterministic sends the full restricted row: n-2 bits per speaking
// player, zero error. No sub-linear deterministic protocol exists
// (fooling-set argument), making this the baseline the randomized
// protocols beat.
type Deterministic struct{}

var _ core.Protocol[bool] = (*Deterministic)(nil)

// Name implements core.Protocol.
func (Deterministic) Name() string { return "equality-deterministic" }

// Sketch implements core.Protocol.
func (Deterministic) Sketch(view core.VertexView, _ *rng.PublicCoins) (*bitio.Writer, error) {
	row, err := restrictedRow(view)
	if err != nil {
		return nil, err
	}
	w := &bitio.Writer{}
	for _, b := range row {
		w.WriteBit(b)
	}
	return w, nil
}

// Decode implements core.Protocol.
func (Deterministic) Decode(n int, sketches []*bitio.Reader, _ *rng.PublicCoins) (bool, error) {
	for i := 0; i < n-2; i++ {
		a, err := sketches[0].ReadBit()
		if err != nil {
			return false, err
		}
		b, err := sketches[1].ReadBit()
		if err != nil {
			return false, err
		}
		if a != b {
			return false, nil
		}
	}
	return true, nil
}

// PublicFingerprint evaluates the row's polynomial at a shared random
// field point: O(log n) bits, one-sided error ≤ (n-2)/p over the public
// coins.
type PublicFingerprint struct{}

var _ core.Protocol[bool] = (*PublicFingerprint)(nil)

// Name implements core.Protocol.
func (PublicFingerprint) Name() string { return "equality-public-coin" }

func fingerprintPoint(coins *rng.PublicCoins) field.Elem {
	z := field.Reduce(coins.Derive("equality-z").Source().Uint64())
	if z == 0 {
		z = 1
	}
	return z
}

// Sketch implements core.Protocol.
func (PublicFingerprint) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	row, err := restrictedRow(view)
	if err != nil {
		return nil, err
	}
	w := &bitio.Writer{}
	if view.ID > 1 {
		return w, nil
	}
	z := fingerprintPoint(coins)
	var fp field.Elem
	// Horner-style running power: zpow tracks z^{i+1} across the scan,
	// one Mul per row bit instead of a full Pow per set bit.
	zpow := z
	for _, b := range row {
		if b {
			fp = field.Add(fp, zpow)
		}
		zpow = field.Mul(zpow, z)
	}
	w.WriteUint(uint64(fp), 61)
	return w, nil
}

// Decode implements core.Protocol.
func (PublicFingerprint) Decode(_ int, sketches []*bitio.Reader, _ *rng.PublicCoins) (bool, error) {
	a, err := sketches[0].ReadUint(61)
	if err != nil {
		return false, err
	}
	b, err := sketches[1].ReadUint(61)
	if err != nil {
		return false, err
	}
	return a == b, nil
}

// PrivateCode is the Babai–Kimmel style private-coin protocol: each
// speaking player Reed–Solomon-encodes its row and sends ~2√m randomly
// selected (position, symbol) pairs using coins the other player cannot
// see. Colliding positions let the referee compare symbols; the code's
// distance turns any inequality into a likely mismatch. Θ(√n·log n) bits
// — quadratically more than public coins, exponentially less than
// deterministic, matching the Θ(√n) private-coin SMP bound for equality.
type PrivateCode struct {
	// Rate is the inverse code rate (evaluation points per message
	// symbol); 0 selects 4.
	Rate int
	// Samples overrides the number of transmitted pairs; 0 selects
	// ceil(2√m).
	Samples int
	// privateSeed simulates private randomness: it is mixed into each
	// player's sampling coins and is unknown to the referee's decode
	// path. Zero value is fine (tests vary it to show independence).
	PrivateSeed uint64
}

var _ core.Protocol[bool] = (*PrivateCode)(nil)

// Name implements core.Protocol.
func (*PrivateCode) Name() string { return "equality-private-coin" }

// rsParams derives the code dimensions for message length n-2 bits.
func rsParams(n, rate int) (symbols, points int) {
	if rate == 0 {
		rate = 4
	}
	symbols = (n - 2 + 59) / 60 // 60 bits per field symbol
	if symbols < 1 {
		symbols = 1
	}
	return symbols, rate * symbols
}

// encode packs the row into field symbols and evaluates its polynomial
// at the first `points` field elements.
func encode(row []bool, symbols, points int) []field.Elem {
	coeffs := make([]field.Elem, symbols)
	for i, b := range row {
		if b {
			coeffs[i/60] = field.Add(coeffs[i/60], field.Elem(uint64(1)<<uint(i%60)))
		}
	}
	out := make([]field.Elem, points)
	for x := 0; x < points; x++ {
		out[x] = field.EvalPoly(coeffs, field.Elem(uint64(x)))
	}
	return out
}

func (p *PrivateCode) samples(points int) int {
	if p.Samples > 0 {
		return p.Samples
	}
	s := 1
	for s*s < 4*points {
		s++
	}
	return s
}

// Sketch implements core.Protocol.
func (p *PrivateCode) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	row, err := restrictedRow(view)
	if err != nil {
		return nil, err
	}
	w := &bitio.Writer{}
	if view.ID > 1 {
		return w, nil
	}
	symbols, points := rsParams(view.N, p.Rate)
	code := encode(row, symbols, points)
	// Private coins: the referee never derives this stream; the two
	// players' streams are independent.
	src := rng.NewSource(coins.Derive("equality-private").DeriveIndex(view.ID).Seed() ^
		p.PrivateSeed ^ 0x6a09e667f3bcc908)
	q := p.samples(points)
	posWidth := bitio.UintWidth(points)
	w.WriteUvarint(uint64(q))
	for i := 0; i < q; i++ {
		pos := src.Intn(points)
		w.WriteUint(uint64(pos), posWidth)
		w.WriteUint(uint64(code[pos]), 61)
	}
	return w, nil
}

// Decode implements core.Protocol: compare symbols on colliding
// positions; with no collision, answer "equal" (the measured error
// source).
func (p *PrivateCode) Decode(n int, sketches []*bitio.Reader, _ *rng.PublicCoins) (bool, error) {
	_, points := rsParams(n, p.Rate)
	posWidth := bitio.UintWidth(points)
	readPairs := func(r *bitio.Reader) (map[int]uint64, error) {
		q, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		out := make(map[int]uint64, q)
		for i := uint64(0); i < q; i++ {
			pos, err := r.ReadUint(posWidth)
			if err != nil {
				return nil, err
			}
			sym, err := r.ReadUint(61)
			if err != nil {
				return nil, err
			}
			out[int(pos)] = sym
		}
		return out, nil
	}
	a, err := readPairs(sketches[0])
	if err != nil {
		return false, fmt.Errorf("equality: player 0: %w", err)
	}
	b, err := readPairs(sketches[1])
	if err != nil {
		return false, fmt.Errorf("equality: player 1: %w", err)
	}
	for pos, sa := range a {
		if sb, ok := b[pos]; ok && sa != sb {
			return false, nil
		}
	}
	return true, nil
}
