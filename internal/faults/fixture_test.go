package faults

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

// updateFixtures regenerates the committed faulted-transcript fixtures.
// They were recorded from the pre-optimization sketch path; regenerating
// is only legitimate for a deliberate wire-format change, never to
// "fix" a drifting optimization.
var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata faulted-transcript fixtures")

// faultedFixture pins one faulted execution whose transcript is committed
// under testdata/. A nil plan selects the reference testPlan.
type faultedFixture struct {
	name     string
	newProto func() engine.Broadcaster
	n        int
	plan     *Plan
}

// TestGoldenFaultedFixtureTranscripts asserts byte-for-byte equality of
// faulted transcripts (drop + corruption + stragglers, the reference
// testPlan — plus the feedback-only plans of the adaptive downlink
// fixtures) with the committed fixtures at Workers ∈ {1, 2, 8}. The
// transcripts of adaptive protocols additionally pin the referee
// feedback lane through <name>.feedback sidecars.
func TestGoldenFaultedFixtureTranscripts(t *testing.T) {
	g := gen.Gnp(48, 0.2, rng.NewSource(7))
	fbDropPlan := Plan{FeedbackDropProb: 1}
	fbCorruptPlan := Plan{FeedbackCorruptProb: 1, FlipBits: 3}
	cases := []faultedFixture{
		{
			name: "faulted-agm-forest-backup",
			n:    g.N(),
			newProto: func() engine.Broadcaster {
				return protocol.OneRound[[]graph.Edge](agm.NewSpanningForest(agm.Config{BackupReps: 2}))
			},
		},
		{
			name:     "faulted-mm-tworound",
			n:        g.N(),
			newProto: func() engine.Broadcaster { return matchproto.NewTwoRound() },
		},
		{
			name:     "faulted-mis-tworound",
			n:        g.N(),
			newProto: func() engine.Broadcaster { return misproto.NewTwoRound() },
		},
		{
			name:     "fb-dropped-mm-tworound",
			n:        g.N(),
			newProto: func() engine.Broadcaster { return matchproto.NewTwoRound() },
			plan:     &fbDropPlan,
		},
		{
			name:     "fb-corrupt-mis-tworound",
			n:        g.N(),
			newProto: func() engine.Broadcaster { return misproto.NewTwoRound() },
			plan:     &fbCorruptPlan,
		},
	}
	coins := rng.NewPublicCoins(101)
	faultCoins := rng.NewPublicCoins(202).Derive("faults")
	for _, fc := range cases {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			plan := testPlan
			if fc.plan != nil {
				plan = *fc.plan
			}
			path := filepath.Join("testdata", fc.name+".golden")
			exec := func(workers int) *engine.Transcript {
				inj := NewInjector(context.Background(), fc.newProto(), plan, faultCoins)
				eng := &engine.Engine{Workers: workers, ShardSize: 3}
				tr, _, err := eng.Execute(context.Background(), inj, g, coins)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			fbPath := filepath.Join("testdata", fc.name+".feedback")
			if *updateFixtures {
				tr := exec(1)
				writeFaultedFixture(t, path, tr, fc.n)
				if fb := flattenFaultedFeedback(t, tr); fb != nil {
					writeFixtureLines(t, fbPath, fb)
				}
			}
			want := readFaultedFixture(t, path)
			wantFB := readOptionalFixture(t, fbPath)
			for _, workers := range []int{1, 2, 8} {
				tr := exec(workers)
				got := flattenFaultedTranscript(t, tr, fc.n)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d messages, fixture has %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: faulted transcript message %d drifted from committed fixture:\n got %s\nwant %s",
							workers, i, got[i], want[i])
					}
				}
				gotFB := flattenFaultedFeedback(t, tr)
				if len(gotFB) != len(wantFB) {
					t.Fatalf("workers=%d: %d feedback rounds, sidecar fixture has %d", workers, len(gotFB), len(wantFB))
				}
				for i := range wantFB {
					if gotFB[i] != wantFB[i] {
						t.Fatalf("workers=%d: faulted feedback round %d drifted from committed fixture:\n got %s\nwant %s",
							workers, i, gotFB[i], wantFB[i])
					}
				}
			}
		})
	}
}

// flattenFaultedTranscript renders "round vertex nbit hex" lines, bits
// packed LSB-first exactly as bitio.Writer lays them out.
func flattenFaultedTranscript(t *testing.T, tr *engine.Transcript, n int) []string {
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

// flattenFaultedFeedback renders the transcript's referee feedback lane
// as "round nbit hex" sidecar lines, or nil when every round's feedback
// is empty (the non-adaptive case, which needs no sidecar fixture).
func flattenFaultedFeedback(t *testing.T, tr *engine.Transcript) []string {
	t.Helper()
	var out []string
	any := false
	for round := 0; round < tr.Rounds(); round++ {
		nbit := tr.FeedbackBitLen(round)
		buf := make([]byte, (nbit+7)/8)
		if nbit > 0 {
			any = true
			r := tr.Feedback(round)
			for i := 0; i < nbit; i++ {
				b, err := r.ReadBit()
				if err != nil {
					t.Fatalf("feedback round %d bit %d: %v", round, i, err)
				}
				if b {
					buf[i/8] |= 1 << uint(i%8)
				}
			}
		}
		out = append(out, fmt.Sprintf("%d %d %s", round, nbit, hex.EncodeToString(buf)))
	}
	if !any {
		return nil
	}
	return out
}

// writeFixtureLines writes pre-rendered fixture lines.
func writeFixtureLines(t *testing.T, path string, lines []string) {
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
	for _, line := range lines {
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// readOptionalFixture reads a fixture's lines, or nil when the file does
// not exist (non-adaptive fixtures have no feedback sidecar).
func readOptionalFixture(t *testing.T, path string) []string {
	t.Helper()
	if _, err := os.Stat(path); err != nil {
		return nil
	}
	return readFaultedFixture(t, path)
}

func writeFaultedFixture(t *testing.T, path string, tr *engine.Transcript, n int) {
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
	for _, line := range flattenFaultedTranscript(t, tr, n) {
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func readFaultedFixture(t *testing.T, path string) []string {
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
