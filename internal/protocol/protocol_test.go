package protocol_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/triangles"
)

// TestRegisterRejectsBadInput checks the registration programming-error
// panics: empty name, nil builder, duplicate name.
func TestRegisterRejectsBadInput(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	dummy := func(g *graph.Graph) protocol.Sketcher[float64] { return triangles.New(0.5) }
	expectPanic("empty name", func() { protocol.RegisterSketcher("", dummy) })
	expectPanic("nil builder", func() { protocol.Register("protocol-test-nil", nil) })
	protocol.RegisterSketcher("protocol-test-dup", dummy)
	expectPanic("duplicate", func() { protocol.RegisterSketcher("protocol-test-dup", dummy) })
}

// TestLookupUnknownListsKnown checks the error message for an unknown
// name carries the registered names, so a wire client's typo is
// self-diagnosing.
func TestLookupUnknownListsKnown(t *testing.T) {
	_, err := protocol.Lookup("no-such-protocol")
	if err == nil {
		t.Fatal("expected error for unknown protocol")
	}
	if !strings.Contains(err.Error(), "mst-weight") {
		t.Errorf("error should list known protocols, got: %v", err)
	}
	if _, err := protocol.Build("no-such-protocol", gen.Gnp(8, 0.5, rng.NewSource(1))); err == nil {
		t.Fatal("Build should propagate the lookup error")
	}
}

// TestLiftRunsSketcherEndToEnd checks that a registry-built protocol
// executes through the engine and reports the Sketcher's own Verify
// verdict in the outcome.
func TestLiftRunsSketcherEndToEnd(t *testing.T) {
	g := gen.Gnp(30, 0.4, rng.NewSource(5))
	p, err := protocol.Build("triangle-count-sketch", g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run[protocol.Outcome](
		context.Background(), &engine.Engine{Workers: 2}, p, g, rng.NewPublicCoins(6))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	if out.Kind != "value" {
		t.Errorf("Kind = %q, want %q", out.Kind, "value")
	}
	if !out.Checked {
		t.Error("outcome should be checked: triangles has an exact verifier")
	}
	if out.Value <= 0 {
		t.Errorf("Value = %v, want a positive triangle estimate", out.Value)
	}
}

// TestRegisteredProtocolContracts pins, for every registered protocol,
// the Name its built instance reports — RunStats.Protocol in every wire
// report, which no transcript fixture covers — and the optional engine
// capabilities it has. One-round protocols come through the one-round
// adapter: a block form and a resilient decode, no referee feedback.
// Multi-round protocols come through Adapt: a block form that decodes
// each round's shared state once per shard, feedback, and a resilient
// decode.
func TestRegisteredProtocolContracts(t *testing.T) {
	const (
		oneRound   = "block+resilient"
		multiRound = "block+feedback+resilient"
	)
	want := map[string]struct {
		name   string
		rounds int
		caps   string
	}{
		"agm-components":          {"agm-component-count/bcc", 1, oneRound},
		"agm-cut-sparsifier":      {"agm-cut-sparsifier/bcc", 1, oneRound},
		"agm-forest":              {"agm-spanning-forest/bcc", 1, oneRound},
		"agm-forest-backup":       {"agm-spanning-forest/bcc", 1, oneRound},
		"agm-skeleton":            {"agm-skeleton-2/bcc", 1, oneRound},
		"degeneracy-sketch":       {"degeneracy-sketch/bcc", 1, oneRound},
		"densest-subgraph-sketch": {"densest-subgraph-sketch/bcc", 1, oneRound},
		"equality-public-coin":    {"equality-public-coin/bcc", 1, oneRound},
		"mis-tworound":            {"two-round-mis", 2, multiRound},
		"mm-tworound":             {"two-round-filtering-mm", 2, multiRound},
		"mst-weight":              {"mst-weight/bcc", 1, oneRound},
		"palette-sparsification":  {"palette-sparsification/bcc", 1, oneRound},
		"semistream-matching":     {"semistream-matching(eps=0.25)", 10, multiRound},
		"triangle-count-sketch":   {"triangle-count-sketch/bcc", 1, oneRound},
	}
	g := gen.Gnp(30, 0.4, rng.NewSource(5))
	for _, name := range protocol.Names() {
		if strings.HasPrefix(name, "protocol-test-") {
			continue // registered by TestRegisterRejectsBadInput
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: registered but missing from this table", name)
			continue
		}
		delete(want, name)
		p, err := protocol.Build(name, g)
		if err != nil {
			t.Fatal(err)
		}
		var caps []string
		if _, ok := p.(engine.BlockBroadcaster); ok {
			caps = append(caps, "block")
		}
		if _, ok := p.(engine.Adaptive); ok {
			caps = append(caps, "feedback")
		}
		if _, ok := p.(engine.ResilientProtocol[protocol.Outcome]); ok {
			caps = append(caps, "resilient")
		}
		if got := p.Name(); got != w.name {
			t.Errorf("%s: Name() = %q, want %q", name, got, w.name)
		}
		if got := p.Rounds(); got != w.rounds {
			t.Errorf("%s: Rounds() = %d, want %d", name, got, w.rounds)
		}
		if got := strings.Join(caps, "+"); got != w.caps {
			t.Errorf("%s: capabilities %q, want %q", name, got, w.caps)
		}
	}
	for name := range want {
		t.Errorf("%s: in this table but not registered", name)
	}
}

// TestOneRoundAdapterEquivalence is the paper's §2.1 equivalence (and
// experiment E12) in miniature: a one-round sketching protocol produces
// the same output and cost run directly and, with the same coins,
// through the broadcast congested clique.
func TestOneRoundAdapterEquivalence(t *testing.T) {
	g := gen.Gnp(25, 0.25, rng.NewSource(4))
	coins := rng.NewPublicCoins(5)
	p := core.NewTrivialMatching()

	direct, err := core.Run(p, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	viaBCC, err := engine.Run[[]graph.Edge](context.Background(), &engine.Engine{Workers: 1}, protocol.OneRound[[]graph.Edge](p), g, coins)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Output) != len(viaBCC.Output) {
		t.Fatalf("outputs differ: %d vs %d edges", len(direct.Output), len(viaBCC.Output))
	}
	for i := range direct.Output {
		if direct.Output[i] != viaBCC.Output[i] {
			t.Fatal("outputs differ")
		}
	}
	if direct.MaxSketchBits != viaBCC.Stats.MaxMessageBits {
		t.Errorf("cost differs: %d vs %d", direct.MaxSketchBits, viaBCC.Stats.MaxMessageBits)
	}
}

func TestOneRoundAdapterName(t *testing.T) {
	a := protocol.OneRound[[]graph.Edge](core.NewTrivialMatching())
	if a.Name() != "trivial-full-graph/bcc" {
		t.Errorf("Name() = %q", a.Name())
	}
	if a.Rounds() != 1 {
		t.Errorf("Rounds() = %d", a.Rounds())
	}
}
