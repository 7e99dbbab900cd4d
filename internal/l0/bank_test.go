package l0

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/field"
	"repro/internal/rng"
)

// bankUpdate describes one ±1 update of one lane for the equivalence
// tests.
type bankUpdate struct {
	lane  int
	index uint64
	neg   bool
}

func randBankUpdates(r *rand.Rand, lanes int, universe uint64, m int) []bankUpdate {
	ups := make([]bankUpdate, m)
	for i := range ups {
		ups[i] = bankUpdate{
			lane:  r.Intn(lanes),
			index: r.Uint64() % universe,
			neg:   r.Intn(2) == 1,
		}
	}
	return ups
}

// TestBankMatchesScalar proves the columnar path is bit-identical to the
// scalar path: for random ±1 update sequences, every lane's WriteLane
// bytes equal the bytes of a per-lane Sketch fed through Spec.Update, and
// LaneChecksum equals Sketch.Checksum.
func TestBankMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	bank := NewBank()
	var upd BlockUpdates
	for trial := 0; trial < 10; trial++ {
		universe := uint64(100 + r.Intn(100_000_000))
		sp := NewSpec(universe, rng.NewPublicCoins(uint64(trial)))
		lanes := 1 + r.Intn(130)
		ups := randBankUpdates(r, lanes, universe, r.Intn(4*lanes+1))

		bank.Reset(sp.Levels(), lanes)
		upd.Reset()
		for _, u := range ups {
			upd.Add(u.lane, u.index, u.neg)
		}
		sp.UpdateBlock(bank, &upd)

		scalar := make([]*Sketch, lanes)
		for l := range scalar {
			scalar[l] = sp.NewSketch()
		}
		for _, u := range ups {
			delta := int64(1)
			if u.neg {
				delta = -1
			}
			sp.Update(scalar[u.lane], u.index, delta)
		}

		for l := 0; l < lanes; l++ {
			var wb, ws bitio.Writer
			bank.WriteLane(&wb, l)
			scalar[l].Write(&ws)
			if wb.Len() != ws.Len() {
				t.Fatalf("trial %d lane %d: block %d bits, scalar %d bits", trial, l, wb.Len(), ws.Len())
			}
			if !bytes.Equal(wb.Bytes(), ws.Bytes()) {
				t.Fatalf("trial %d lane %d: serialized bytes differ", trial, l)
			}
			if got, want := bank.LaneChecksum(l), scalar[l].Checksum(); got != want {
				t.Fatalf("trial %d lane %d: LaneChecksum %#x, scalar Checksum %#x", trial, l, got, want)
			}
		}
	}
}

// TestUpdateBlockOnLoadedLanes: UpdateBlock applied to lanes that
// already hold cells — loaded with ReadLane, as the skeleton referee
// loads a sampler before it subtracts earlier forests' edges — matches
// the scalar Spec.Update reference cell for cell, and leaves each lane's
// top at one past its highest nonzero-or-touched level: the larger of
// the loaded cells' watermark and the highest level an update sampled
// to. One update list serves specs of several universes in turn, so the
// scratch is reused across level counts.
func TestUpdateBlockOnLoadedLanes(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	bank := NewBank()
	var upd BlockUpdates
	for trial := 0; trial < 12; trial++ {
		universe := uint64(16 + r.Intn(1<<20))
		sp := NewSpec(universe, rng.NewPublicCoins(uint64(100+trial)))
		lanes := 1 + r.Intn(40)
		bank.Reset(sp.Levels(), lanes)
		scalar := make([]*Sketch, lanes)
		wantTop := make([]int32, lanes)
		for l := range scalar {
			scalar[l] = sp.NewSketch()
			for _, u := range randBankUpdates(r, 1, universe, r.Intn(6)) {
				sp.Update(scalar[l], u.index, 1-2*int64(r.Intn(2)))
			}
			var w bitio.Writer
			scalar[l].Write(&w)
			if err := sp.ReadLane(bank, l, bitio.ReaderFor(&w)); err != nil {
				t.Fatal(err)
			}
			for lvl, c := range scalar[l].cells {
				if c.valSum|c.idxSum|c.fpSum != 0 {
					wantTop[l] = int32(lvl + 1)
				}
			}
		}
		for block := 0; block < 3; block++ {
			upd.Reset()
			for _, u := range randBankUpdates(r, lanes, universe, r.Intn(3*lanes+1)) {
				upd.Add(u.lane, u.index, u.neg)
				delta := int64(1)
				if u.neg {
					delta = -1
				}
				sp.Update(scalar[u.lane], u.index, delta)
				wantTop[u.lane] = max(wantTop[u.lane], int32(sp.hash.Level(u.index, sp.levels-1)+1))
			}
			sp.UpdateBlock(bank, &upd)
			for l, sk := range scalar {
				base := l * bank.levels
				for lvl, c := range sk.cells {
					got := oneSparse{valSum: bank.val[base+lvl], idxSum: bank.idx[base+lvl], fpSum: bank.fp[base+lvl]}
					if got != c {
						t.Fatalf("trial %d block %d lane %d level %d: bank cell %v, scalar %v", trial, block, l, lvl, got, c)
					}
				}
				if bank.top[l] != wantTop[l] {
					t.Fatalf("trial %d block %d lane %d: top %d, want %d", trial, block, l, bank.top[l], wantTop[l])
				}
			}
			requireZeroScratch(t, &upd)
		}
	}
}

// requireZeroScratch fails unless UpdateBlock left its per-level sums
// and cell offsets all zero, over their whole capacity.
func requireZeroScratch(t *testing.T, u *BlockUpdates) {
	t.Helper()
	for i, c := range u.sums[:cap(u.sums)] {
		if c != (oneSparse{}) {
			t.Fatalf("scratch cell %d left nonzero: %v", i, c)
		}
	}
	for k, o := range u.off[:cap(u.off)] {
		if o != 0 {
			t.Fatalf("scratch offset %d left at %d", k, o)
		}
	}
}

// TestSpecTableHoldsOnlyItsWindows: a spec's fingerprint table covers
// exponents up to its universe and no further. Over universe 256² (17
// exponent bits, agm-forest at n = 256) that is three 2 KiB windows,
// where a full 64-bit table holds eight, and deriving the spec allocates
// less than a fourth window would take.
func TestSpecTableHoldsOnlyItsWindows(t *testing.T) {
	const universe = 256 * 256
	coins := rng.NewPublicCoins(5)
	sp := NewSpec(universe, coins)
	if w := sp.zpow.Windows(); w > 3 {
		t.Fatalf("spec over universe %d holds %d windows, want at most 3", universe, w)
	}
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sp = NewSpec(universe, coins)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 8<<10 {
		t.Fatalf("NewSpec over universe %d allocates %d bytes, want under 8 KiB", universe, per)
	}
	for _, e := range []uint64{1, universe} {
		if got, want := sp.powZ(e), field.Pow(sp.z, e); got != want {
			t.Fatalf("z^%d = %d, want %d", e, got, want)
		}
	}
}

// TestBankResetReshape reuses one bank across shrinking and growing
// geometries and checks the zero invariant survives each reshape: after
// Reset every lane serializes as the all-zero sketch.
func TestBankResetReshape(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	sp := NewSpec(1_000_000, rng.NewPublicCoins(3))
	bank := NewBank()
	var upd BlockUpdates
	zero := sp.NewSketch()
	var wz bitio.Writer
	zero.Write(&wz)
	for _, lanes := range []int{64, 5, 128, 1, 64} {
		// Dirty the bank, then reshape and verify it reads all-zero.
		bank.Reset(sp.Levels(), lanes)
		upd.Reset()
		for _, u := range randBankUpdates(r, lanes, sp.Universe(), 3*lanes) {
			upd.Add(u.lane, u.index, u.neg)
		}
		sp.UpdateBlock(bank, &upd)

		bank.Reset(sp.Levels(), lanes)
		for l := 0; l < lanes; l++ {
			var w bitio.Writer
			bank.WriteLane(&w, l)
			if !bytes.Equal(w.Bytes(), wz.Bytes()) {
				t.Fatalf("lanes %d lane %d: Reset left nonzero cells", lanes, l)
			}
			if got, want := bank.LaneChecksum(l), zero.Checksum(); got != want {
				t.Fatalf("lanes %d lane %d: zero checksum %#x, want %#x", lanes, l, got, want)
			}
		}
	}
}

// TestBankAddLaneMatchesSketchAdd checks the columnar merge against
// Sketch.Add.
func TestBankAddLaneMatchesSketchAdd(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	sp := NewSpec(10_000_000, rng.NewPublicCoins(7))
	bank := NewBank()
	bank.Reset(sp.Levels(), 2)
	var upd BlockUpdates
	ups := randBankUpdates(r, 2, sp.Universe(), 40)
	for _, u := range ups {
		upd.Add(u.lane, u.index, u.neg)
	}
	sp.UpdateBlock(bank, &upd)

	a, b := sp.NewSketch(), sp.NewSketch()
	for _, u := range ups {
		delta := int64(1)
		if u.neg {
			delta = -1
		}
		if u.lane == 0 {
			sp.Update(a, u.index, delta)
		} else {
			sp.Update(b, u.index, delta)
		}
	}
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	bank.AddLane(0, 1)
	var wb, ws bitio.Writer
	bank.WriteLane(&wb, 0)
	a.Write(&ws)
	if !bytes.Equal(wb.Bytes(), ws.Bytes()) {
		t.Fatal("AddLane result differs from Sketch.Add")
	}
}

// TestUpdateBlockZeroAlloc pins the full banked update + serialize cycle
// at zero allocations per run once scratch has reached its high-water
// mark. Deliberately no sync.Pool anywhere in this path: the bank, the
// update list, and the writer are all caller-owned, so the guarantee is
// strict rather than GC-dependent.
func TestUpdateBlockZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	sp := NewSpec(100_000_000, rng.NewPublicCoins(11))
	const lanes = 128
	ups := randBankUpdates(r, lanes, sp.Universe(), 8*lanes)
	bank := NewBank()
	var upd BlockUpdates
	w := &bitio.Writer{}
	cycle := func() {
		bank.Reset(sp.Levels(), lanes)
		upd.Reset()
		for _, u := range ups {
			upd.Add(u.lane, u.index, u.neg)
		}
		sp.UpdateBlock(bank, &upd)
		w.Reset()
		w.Grow(lanes * sp.Levels() * 3 * 61)
		for l := 0; l < lanes; l++ {
			bank.WriteLane(w, l)
		}
	}
	cycle() // warm buffers to the high-water mark
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("blocked update cycle allocates %v times per run, want 0", avg)
	}
	requireZeroScratch(t, &upd)
}

// benchBankSetup builds a realistic block: 128 lanes at average degree 8
// over the n = 10⁴ edge-index universe, matching the engine's AGM load.
func benchBankSetup() (Spec, []bankUpdate) {
	r := rand.New(rand.NewSource(41))
	sp := NewSpec(10000*10000, rng.NewPublicCoins(13))
	return sp, randBankUpdates(r, 128, sp.Universe(), 128*8)
}

// BenchmarkBankUpdate measures the full banked cycle — gather, batched
// update, serialize — per ℓ₀ update.
func BenchmarkBankUpdate(b *testing.B) {
	sp, ups := benchBankSetup()
	bank := NewBank()
	var upd BlockUpdates
	w := &bitio.Writer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Reset(sp.Levels(), 128)
		upd.Reset()
		for _, u := range ups {
			upd.Add(u.lane, u.index, u.neg)
		}
		sp.UpdateBlock(bank, &upd)
		w.Reset()
		for l := 0; l < 128; l++ {
			bank.WriteLane(w, l)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/update")
}

// BenchmarkL0UpdateBlock measures just the batched update scatter (no
// serialization), the direct counterpart of BenchmarkL0Update.
func BenchmarkL0UpdateBlock(b *testing.B) {
	sp, ups := benchBankSetup()
	bank := NewBank()
	var upd BlockUpdates
	upd.Reset()
	for _, u := range ups {
		upd.Add(u.lane, u.index, u.neg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Reset(sp.Levels(), 128)
		sp.UpdateBlock(bank, &upd)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/update")
}

// BenchmarkBankUpdateScalarLoop is the scalar reference for the same
// load: per-lane pooled sketches fed through Spec.Update and serialized
// cell by cell.
func BenchmarkBankUpdateScalarLoop(b *testing.B) {
	sp, ups := benchBankSetup()
	var w bitio.Writer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sketches := make([]*Sketch, 128)
		for l := range sketches {
			sketches[l] = sp.AcquireSketch()
		}
		for _, u := range ups {
			delta := int64(1)
			if u.neg {
				delta = -1
			}
			sp.Update(sketches[u.lane], u.index, delta)
		}
		w.Reset()
		for _, sk := range sketches {
			sk.Write(&w)
			ReleaseSketch(sk)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/update")
}
