package engine_test

import (
	"bufio"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/agm"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// updateFixtures regenerates the committed golden transcripts. The
// fixtures were recorded from the pre-optimization sketch path; they must
// only ever be regenerated for a deliberate, documented format change —
// the whole point of committing them is that hot-path optimizations
// (power tables, spec memoization, buffer pooling) cannot silently move a
// single transcript bit.
var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata transcript fixtures")

// fixtureCase pins one protocol execution whose full transcript is
// committed under testdata/.
type fixtureCase struct {
	name string
	run  func(t *testing.T, workers int) *engine.Transcript
	n    int
}

func engineFixtureCases() []fixtureCase {
	exec := func(t *testing.T, p engine.Broadcaster, g *graph.Graph, coins *rng.PublicCoins, workers int) *engine.Transcript {
		t.Helper()
		eng := &engine.Engine{Workers: workers, ShardSize: 3}
		tr, _, err := eng.Execute(context.Background(), p, g, coins)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	agmGraph := gen.Gnp(60, 0.15, rng.NewSource(11))
	agmBackupGraph := gen.Gnp(40, 0.2, rng.NewSource(21))
	mmGraph := gen.Gnp(50, 0.3, rng.NewSource(13))
	misGraph := gen.Gnp(50, 0.25, rng.NewSource(15))
	return []fixtureCase{
		{
			name: "agm-forest",
			n:    agmGraph.N(),
			run: func(t *testing.T, workers int) *engine.Transcript {
				p := protocol.OneRound[[]graph.Edge](agm.NewSpanningForest(agm.Config{}))
				return exec(t, p, agmGraph, rng.NewPublicCoins(12), workers)
			},
		},
		{
			name: "agm-forest-backup",
			n:    agmBackupGraph.N(),
			run: func(t *testing.T, workers int) *engine.Transcript {
				p := protocol.OneRound[[]graph.Edge](agm.NewSpanningForest(agm.Config{BackupReps: 2}))
				return exec(t, p, agmBackupGraph, rng.NewPublicCoins(22), workers)
			},
		},
		{
			name: "agm-skeleton",
			n:    agmBackupGraph.N(),
			run: func(t *testing.T, workers int) *engine.Transcript {
				p := protocol.OneRound[[]graph.Edge](agm.NewSkeleton(2, agm.Config{}))
				return exec(t, p, agmBackupGraph, rng.NewPublicCoins(23), workers)
			},
		},
		{
			name: "mm-tworound",
			n:    mmGraph.N(),
			run: func(t *testing.T, workers int) *engine.Transcript {
				return exec(t, matchproto.NewTwoRound(), mmGraph, rng.NewPublicCoins(14), workers)
			},
		},
		{
			name: "mis-tworound",
			n:    misGraph.N(),
			run: func(t *testing.T, workers int) *engine.Transcript {
				return exec(t, misproto.NewTwoRound(), misGraph, rng.NewPublicCoins(16), workers)
			},
		},
	}
}

// TestGoldenFixtureTranscripts asserts, for every pinned protocol
// execution and Workers ∈ {1, 2, 8}, byte-for-byte equality of the full
// transcript with the pre-optimization fixture committed under testdata/.
func TestGoldenFixtureTranscripts(t *testing.T) {
	for _, fc := range engineFixtureCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			path := filepath.Join("testdata", fc.name+".golden")
			if *updateFixtures {
				writeTranscriptFixture(t, path, fc.run(t, 1), fc.n)
			}
			want := readTranscriptFixture(t, path)
			for _, workers := range []int{1, 2, 8} {
				got := flattenTranscript(t, fc.run(t, workers), fc.n)
				compareTranscriptLines(t, fmt.Sprintf("%s workers=%d", fc.name, workers), got, want)
			}
		})
	}
}

// flattenTranscript renders a transcript as one canonical line per
// (round, vertex): "round vertex nbit hex" with bits packed LSB-first
// exactly as bitio.Writer lays them out.
func flattenTranscript(t *testing.T, tr *engine.Transcript, n int) []string {
	t.Helper()
	var out []string
	for round := 0; round < tr.Rounds(); round++ {
		for v := 0; v < n; v++ {
			nbit := tr.BitLen(round, v)
			r := tr.Message(round, v)
			buf := make([]byte, (nbit+7)/8)
			for i := 0; i < nbit; i++ {
				b, err := r.ReadBit()
				if err != nil {
					t.Fatalf("round %d vertex %d bit %d: %v", round, v, i, err)
				}
				if b {
					buf[i/8] |= 1 << uint(i%8)
				}
			}
			out = append(out, fmt.Sprintf("%d %d %d %s", round, v, nbit, hex.EncodeToString(buf)))
		}
	}
	return out
}

func writeTranscriptFixture(t *testing.T, path string, tr *engine.Transcript, n int) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, line := range flattenTranscript(t, tr, n) {
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func readTranscriptFixture(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing fixture %s (generate with -update-fixtures ONLY from a known-good tree): %v", path, err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func compareTranscriptLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d transcript messages, fixture has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: transcript message %d drifted from committed fixture:\n got %s\nwant %s",
				label, i, got[i], want[i])
		}
	}
}
