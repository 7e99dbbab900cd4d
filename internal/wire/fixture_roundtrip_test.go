package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/engine"
)

// goldenFixturePaths returns every committed golden transcript in the
// engine and faults test suites. The wire codec must round-trip all of
// them byte-identically: they are the bytes the service parity sweep
// diffs against.
func goldenFixturePaths(t *testing.T) []string {
	t.Helper()
	var paths []string
	for _, dir := range []string{
		filepath.Join("..", "engine", "testdata"),
		filepath.Join("..", "faults", "testdata"),
		filepath.Join("..", "protocol", "testdata"),
	} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.golden"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, matches...)
	}
	if len(paths) < 20 {
		t.Fatalf("found only %d golden fixtures, expected the 5 engine + 5 faults + 10 protocol ones", len(paths))
	}
	return paths
}

// readFixtureTranscript rebuilds an engine.Transcript from a golden file
// of "round vertex nbit hex" lines (bits packed LSB-first, exactly
// bitio.Writer's layout). Trailer lines that do not start with a digit
// (the protocol fixtures append an "outcome ..." line) are skipped. When
// a sidecar "<base>.feedback" file exists next to the golden, its
// "round nbit hex" lines are sealed as the rounds' referee feedback; the
// player goldens themselves never carry feedback, preserving their
// pre-migration bytes.
func readFixtureTranscript(t *testing.T, path string) *engine.Transcript {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	feedback := readFixtureFeedback(t, strings.TrimSuffix(path, ".golden")+".feedback")
	tr := engine.NewTranscript()
	var msgs []*bitio.Writer
	current := 0
	flush := func() {
		if msgs != nil {
			tr.SealRound(msgs)
			tr.SealFeedback(feedback[current])
			msgs = nil
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if len(line) == 0 || line[0] < '0' || line[0] > '9' {
			continue
		}
		var round, vertex, nbit int
		var hexBits string
		n, err := fmt.Sscanf(line, "%d %d %d %s", &round, &vertex, &nbit, &hexBits)
		if err != nil && n < 3 {
			t.Fatalf("%s: malformed line %q: %v", path, line, err)
		}
		if round != current {
			flush()
			current = round
		}
		msgs = append(msgs, fixtureMessage(t, path, line, nbit, hexBits))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	flush()
	return tr
}

// fixtureMessage unpacks one fixture line's hex-packed bits into a
// writer; nil for empty messages.
func fixtureMessage(t *testing.T, path, line string, nbit int, hexBits string) *bitio.Writer {
	t.Helper()
	if nbit == 0 {
		return nil
	}
	buf, err := hex.DecodeString(hexBits)
	if err != nil {
		t.Fatalf("%s: bad hex in %q: %v", path, line, err)
	}
	w := &bitio.Writer{}
	for i, rem := 0, nbit; rem > 0; i, rem = i+1, rem-8 {
		w.WriteUint(uint64(buf[i]), min(rem, 8))
	}
	return w
}

// readFixtureFeedback loads a feedback sidecar ("round nbit hex" lines)
// into a per-round map; an absent sidecar is an empty map (the
// non-adaptive case).
func readFixtureFeedback(t *testing.T, path string) map[int]*bitio.Writer {
	t.Helper()
	out := map[int]*bitio.Writer{}
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		var round, nbit int
		var hexBits string
		n, err := fmt.Sscanf(sc.Text(), "%d %d %s", &round, &nbit, &hexBits)
		if err != nil && n < 2 {
			t.Fatalf("%s: malformed feedback line %q: %v", path, sc.Text(), err)
		}
		out[round] = fixtureMessage(t, path, sc.Text(), nbit, hexBits)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenFixtureWireRoundTrip asserts decode(encode(t)) is
// byte-identical for every committed golden transcript, that the encoding
// matches the bit-serial reference codec's, and that the digest is stable
// across the round trip.
func TestGoldenFixtureWireRoundTrip(t *testing.T) {
	for _, path := range goldenFixturePaths(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			want := readFixtureTranscript(t, path)
			enc1 := EncodeTranscript(want)
			if !bytes.Equal(enc1, referenceEncodeTranscript(want)) {
				t.Fatal("encoding differs from the reference codec's")
			}
			got, err := DecodeTranscript(enc1)
			if err != nil {
				t.Fatal(err)
			}
			enc2 := EncodeTranscript(got)
			if !bytes.Equal(enc1, enc2) {
				t.Fatal("decode(encode(t)) re-encodes differently")
			}
			if TranscriptDigest(got) != TranscriptDigest(want) {
				t.Fatal("digest drifted across round trip")
			}
		})
	}
}

// TestGoldenFixtureCrossVersionRejected flips the version byte on each
// fixture's encoding and checks for a clear rejection.
func TestGoldenFixtureCrossVersionRejected(t *testing.T) {
	for _, path := range goldenFixturePaths(t) {
		data := EncodeTranscript(readFixtureTranscript(t, path))
		data[4] = Version + 1
		if _, err := DecodeTranscript(data); err == nil {
			t.Fatalf("%s: future-version frame accepted", filepath.Base(path))
		}
	}
}

// TestSmokeSpecsReproduceGoldenFixtures is the local half of the service
// parity invariant: executing each SmokeSpecs entry through the RunSpec
// registry yields exactly the transcript committed as that fixture's
// golden file. The remote half (same specs dispatched through refereed
// over HTTP) lives in internal/server.
func TestSmokeSpecsReproduceGoldenFixtures(t *testing.T) {
	for _, spec := range SmokeSpecs(1) {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			report, err := ExecuteSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			path := smokeFixturePath(t, spec)
			want := readFixtureTranscript(t, path)
			if !bytes.Equal(EncodeTranscript(report.Transcript), EncodeTranscript(want)) {
				t.Fatalf("spec %s does not reproduce committed fixture %s", spec.Label, path)
			}
		})
	}
}

// smokeFixturePath maps a smoke spec to its committed golden file:
// faulted specs pin faults fixtures; clean specs pin either an engine
// fixture (the original five) or a protocol one (the migrated sketch
// protocols).
func smokeFixturePath(t *testing.T, spec RunSpec) string {
	t.Helper()
	if spec.Faults != (FaultSpec{}) {
		return filepath.Join("..", "faults", "testdata", spec.Label+".golden")
	}
	// protocol/testdata takes precedence: for the adaptive two-round
	// protocols it holds the same player bytes as engine/testdata plus
	// the feedback sidecar recorded at the migration.
	for _, dir := range []string{"protocol", "engine"} {
		path := filepath.Join("..", dir, "testdata", spec.Label+".golden")
		if _, err := os.Stat(path); err == nil {
			return path
		}
	}
	t.Fatalf("no committed golden fixture for smoke spec %q", spec.Label)
	return ""
}
