package agm

// Wire registration: the four AGM-sketch wire protocols self-register so
// that importing this package (directly or via any protocol that builds
// on the forest sketches) makes them executable through wire.ExecuteSpec
// and the refereed daemon.

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/protocol"
)

func init() {
	protocol.Register("agm-forest", func(g *graph.Graph) engine.Protocol[protocol.Outcome] {
		return protocol.Lift[[]graph.Edge](NewSpanningForest(Config{}),
			protocol.EdgesOutcome(g, graph.IsSpanningForest))
	})
	protocol.Register("agm-forest-backup", func(g *graph.Graph) engine.Protocol[protocol.Outcome] {
		return protocol.Lift[[]graph.Edge](NewSpanningForest(Config{BackupReps: 2}),
			protocol.EdgesOutcome(g, graph.IsSpanningForest))
	})
	protocol.Register("agm-skeleton", func(g *graph.Graph) engine.Protocol[protocol.Outcome] {
		return protocol.Lift[[]graph.Edge](NewSkeleton(2, Config{}),
			protocol.EdgesOutcome(g, nil))
	})
	protocol.Register("agm-components", func(g *graph.Graph) engine.Protocol[protocol.Outcome] {
		return protocol.Lift[int](NewComponentCount(Config{}),
			protocol.CountOutcome(g, func(g *graph.Graph, out int) bool {
				_, count := g.Components()
				return out == count
			}))
	})
}
