package agm

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// setOnes returns m with the 61-bit element at bit position pos
// overwritten by 61 one-bits: 2^61 − 1 = p, the smallest out-of-range
// value.
func setOnes(m message, pos int) message {
	buf := append([]byte(nil), m.buf...)
	for b := pos; b < pos+61; b++ {
		buf[b/8] |= 1 << (b % 8)
	}
	return message{buf: buf, nbit: m.nbit}
}

// The strict decoders validate every element of every message before
// Borůvka runs, so a message one bit short and an out-of-range element
// in the last sampler — a round Borůvka never reaches — are rejected,
// with the error text the element-at-a-time reader produced.

func TestForestDecodeRejections(t *testing.T) {
	const n = 24 // 14 rounds × 3 reps = 42 samplers of 12 levels
	g := gen.Gnp(n, 0.2, rng.NewSource(5))
	coins := rng.NewPublicCoins(8)
	p := NewSpanningForest(Config{})
	clean := sketchAll(t, p, g, coins)
	sampler := clean[0].nbit / 42
	lastSampler := 41 * sampler
	for _, tc := range []struct {
		name   string
		damage func([]message)
		want   string
	}{
		{"one bit short", func(m []message) { m[5] = prefix(m[5], m[5].nbit-1) },
			"agm: vertex 5 sampler 41: l0: level 11: bitio: read past end of message"},
		{"out of range in the last sampler", func(m []message) { m[7] = setOnes(m[7], lastSampler+3*183+61) },
			"agm: vertex 7 sampler 41: l0: level 3: l0: field element out of range"},
		{"lowest vertex first", func(m []message) {
			m[9] = prefix(m[9], m[9].nbit-1)
			m[7] = setOnes(m[7], lastSampler+3*183+61)
		}, "agm: vertex 7 sampler 41: l0: level 3: l0: field element out of range"},
	} {
		msgs := append([]message(nil), clean...)
		tc.damage(msgs)
		if _, err := p.Decode(n, readers(msgs), coins); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSkeletonDecodeRejections(t *testing.T) {
	const n = 24 // per group: 42 samplers of 12 levels
	g := gen.Gnp(n, 0.2, rng.NewSource(6))
	coins := rng.NewPublicCoins(9)
	p := NewSkeleton(3, Config{})
	clean := sketchAll(t, p, g, coins)
	group := clean[0].nbit / 3
	lastSampler := func(g int) int { return g*group + 41*group/42 }
	for _, tc := range []struct {
		name   string
		damage func([]message)
		want   string
	}{
		{"one bit short", func(m []message) { m[3] = prefix(m[3], m[3].nbit-1) },
			"agm: skeleton group 2: agm: vertex 3 sampler 41: l0: level 11: bitio: read past end of message"},
		{"out of range in the last sampler", func(m []message) { m[4] = setOnes(m[4], lastSampler(0)+5*183) },
			"agm: skeleton group 0: agm: vertex 4 sampler 41: l0: level 5: l0: field element out of range"},
		{"lowest group first", func(m []message) {
			m[1] = setOnes(m[1], lastSampler(2)+2*183+122)
			m[6] = setOnes(m[6], lastSampler(1)+7*183)
		}, "agm: skeleton group 1: agm: vertex 6 sampler 41: l0: level 7: l0: field element out of range"},
		{"lowest vertex within a group", func(m []message) {
			m[6] = setOnes(m[6], lastSampler(1)+7*183)
			m[2] = setOnes(m[2], lastSampler(1)+183)
		}, "agm: skeleton group 1: agm: vertex 2 sampler 41: l0: level 1: l0: field element out of range"},
	} {
		msgs := append([]message(nil), clean...)
		tc.damage(msgs)
		if _, err := p.Decode(n, readers(msgs), coins); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
