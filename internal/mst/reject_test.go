package mst

import (
	"testing"

	"repro/internal/agm"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestDecodeRejections: every threshold's forest stacks are validated
// in full before that threshold's Borůvka runs, so a message one bit
// short and an out-of-range element in the last sampler of a stack — a
// round Borůvka never reaches — are rejected with the error text of the
// element-at-a-time reader.
func TestDecodeRejections(t *testing.T) {
	const n, maxW = 24, 3 // per threshold: 14 rounds × 3 reps = 42 samplers of 12 levels
	src := rng.NewSource(4)
	wg := RandomWeights(gen.Gnp(n, 0.2, src), maxW, src)
	coins := rng.NewPublicCoins(6)
	p := NewProtocol(wg, agm.Config{})
	clean := make([]*bitio.Writer, n)
	for v := range clean {
		w, err := p.Sketch(core.VertexView{N: n, ID: v, Neighbors: wg.G.Neighbors(v)}, coins)
		if err != nil {
			t.Fatal(err)
		}
		clean[v] = w
	}
	stack := clean[0].Len() / maxW
	lastSampler := func(threshold int) int { return (threshold-1)*stack + 41*stack/42 }
	for _, tc := range []struct {
		name   string
		vertex int
		bits   func(buf []byte, nbit int) int // damages buf, returns the new length
		want   string
	}{
		{"one bit short", 5, func(_ []byte, nbit int) int { return nbit - 1 },
			"mst: threshold 3 decode: agm: vertex 5 sampler 41: l0: level 11: bitio: read past end of message"},
		{"out of range in the last sampler", 4, func(buf []byte, nbit int) int {
			for b := lastSampler(1) + 3*183 + 61; b < lastSampler(1)+3*183+122; b++ {
				buf[b/8] |= 1 << (b % 8)
			}
			return nbit
		}, "mst: threshold 1 decode: agm: vertex 4 sampler 41: l0: level 3: l0: field element out of range"},
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
