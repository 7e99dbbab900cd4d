package main

import (
	"reflect"
	"testing"

	"repro/internal/wire"
)

// allSpecs lists every spec of a plan's set-up and first n timed requests.
func allSpecs(p plan, n int) []wire.RunSpec {
	var out []wire.RunSpec
	for _, r := range p.warm {
		out = append(out, r...)
	}
	for i := 0; i < n; i++ {
		out = append(out, p.next(i)...)
	}
	return out
}

func TestSeedDeterminesEverySpec(t *testing.T) {
	for _, w := range workloads {
		a, b := allSpecs(w.plan(7), 50), allSpecs(w.plan(7), 50)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different spec sequences", w.name)
		}
		c := allSpecs(w.plan(8), 50)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same specs", w.name)
		}
	}
}

func TestMissWorkloadsNeverRepeatACacheKey(t *testing.T) {
	for _, w := range workloads {
		if w.hits {
			continue
		}
		seen := make(map[string]string)
		for _, s := range allSpecs(w.plan(11), 3000) {
			k := wire.SpecCacheKey(s)
			if prev, dup := seen[k]; dup {
				t.Fatalf("%s: %s repeats the cache key of %s", w.name, s.Label, prev)
			}
			seen[k] = s.Label
		}
	}
}

func TestHitWorkloadsCycleTheirWarmWorkingSet(t *testing.T) {
	for _, w := range workloads {
		if !w.hits {
			continue
		}
		p := w.plan(11)
		warmed := make(map[string]bool)
		for _, r := range p.warm {
			warmed[wire.SpecCacheKey(r[0])] = true
		}
		if len(warmed) != len(p.working) || len(p.warm) != 2*len(p.working) {
			t.Fatalf("%s: working set of %d specs, %d distinct warmed keys, %d warm requests",
				w.name, len(p.working), len(warmed), len(p.warm))
		}
		for i := 0; i < 3*len(p.working); i++ {
			if !warmed[wire.SpecCacheKey(p.next(i)[0])] {
				t.Fatalf("%s: timed request %d was never warmed", w.name, i)
			}
		}
	}
}

// resilient are the protocols whose decoders survive dropped messages.
var resilient = map[string]bool{"mm-tworound": true, "mis-tworound": true, "semistream-matching": true}

func TestSpecsAreValidAndHygienic(t *testing.T) {
	for _, w := range workloads {
		for _, s := range allSpecs(w.plan(3), 100) {
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %s: %v", w.name, s.Label, err)
			}
			if s.Workers != 1 {
				t.Errorf("%s: %s runs with %d workers", w.name, s.Label, s.Workers)
			}
			if s.Faults.Straggle != 0 || s.Faults.DelayNS != 0 {
				t.Errorf("%s: %s has straggler delays", w.name, s.Label)
			}
			if s.Faults.Plan().Active() && !resilient[s.Protocol] {
				t.Errorf("%s: %s faults a strict decoder", w.name, s.Label)
			}
		}
		if w.conns < 1 || w.conns > 2 {
			t.Errorf("%s: %d connections", w.name, w.conns)
		}
	}
}
