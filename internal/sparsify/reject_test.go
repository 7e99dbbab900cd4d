package sparsify

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestDecodeRejections: a message one bit short, and an out-of-range
// element in the last sampler of a level's skeleton payload — a round
// Borůvka never reaches — are rejected with the pre-existing error text.
func TestDecodeRejections(t *testing.T) {
	const n = 24 // 6 levels; per level 4 groups × 42 samplers of 12 levels
	g := gen.Gnp(n, 0.2, rng.NewSource(3))
	coins := rng.NewPublicCoins(7)
	p := New(Config{})
	clean := make([]*bitio.Writer, n)
	for v := range clean {
		w, err := p.Sketch(core.VertexView{N: n, ID: v, Neighbors: g.Neighbors(v)}, coins)
		if err != nil {
			t.Fatal(err)
		}
		clean[v] = w
	}
	cfg := p.cfg.withDefaults(n)
	group := skeletonBits(n, cfg) / cfg.K
	lastSampler := (cfg.K-1)*group + 41*group/42 // in level 0's payload, which starts the message
	for _, tc := range []struct {
		name   string
		vertex int
		bits   func(buf []byte, nbit int) int // damages buf, returns the new length
		want   string
	}{
		{"one bit short", 5, func(_ []byte, nbit int) int { return nbit - 1 },
			"sparsify: vertex 5 level 5 length: bitio: read past end of message"},
		{"out of range in the last sampler", 4, func(buf []byte, nbit int) int {
			for b := lastSampler + 2*183; b < lastSampler+2*183+61; b++ {
				buf[b/8] |= 1 << (b % 8)
			}
			return nbit
		}, "sparsify: level 0 decode: agm: skeleton group 3: agm: vertex 4 sampler 41: l0: level 2: l0: field element out of range"},
	} {
		rs := make([]*bitio.Reader, n)
		for v, w := range clean {
			buf, nbit := append([]byte(nil), w.Bytes()...), w.Len()
			if v == tc.vertex {
				nbit = tc.bits(buf, nbit)
			}
			rs[v] = bitio.NewReader(buf, nbit)
		}
		if _, err := p.Decode(n, rs, coins); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
