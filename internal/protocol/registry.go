package protocol

// The registry maps wire protocol names to builders. Protocol packages
// self-register from init() (see their register.go files), so the set of
// available protocols is exactly the set of imported packages — there is
// no central map to keep in sync. Package wire re-exports the lookups;
// importing a protocol package anywhere in a binary makes it reachable
// over the wire.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Builder constructs a FRESH protocol instance for one run on g.
// Protocol values memoize per-run state, so instances are never shared
// across executions; the graph parameter feeds graph-derived parameters
// (promised max degree, edge weights) and the outcome verifier.
type Builder func(g *graph.Graph) engine.Protocol[Outcome]

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
)

// Register adds a named builder. It is meant to be called from protocol
// packages' init() functions and panics on empty or duplicate names —
// both are programming errors a test catches immediately.
func Register(name string, build Builder) {
	if name == "" || build == nil {
		panic("protocol: Register with empty name or nil builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("protocol: duplicate registration of %q", name))
	}
	registry[name] = build
}

// RegisterSketcher registers a one-round Sketcher under name, lifting it
// with its own Verify at build time.
func RegisterSketcher[O any](name string, build func(g *graph.Graph) Sketcher[O]) {
	Register(name, func(g *graph.Graph) engine.Protocol[Outcome] {
		s := build(g)
		return Lift[O](s, func(out O) Outcome { return s.Verify(g, out) })
	})
}

// Lookup resolves a registered name.
func Lookup(name string) (Builder, error) {
	registryMu.RLock()
	build, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("protocol: unknown protocol %q (known: %v)", name, Names())
	}
	return build, nil
}

// Build constructs a fresh instance of the named protocol for g.
func Build(name string, g *graph.Graph) (engine.Protocol[Outcome], error) {
	build, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return build(g), nil
}

// Names returns the sorted registered names.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
