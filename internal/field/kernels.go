package field

// Slice kernels for the block sketching path and the referee's lane
// merge. The scalar ops (Add, Mul, PowTable.Pow) are exact, so each
// kernel is value-identical to calling its scalar counterpart per
// element — the batched forms only amortize call overhead, bounds
// checks, and table-row cache misses across a block of lanes:
// ReduceBlock, PowBlock and MulBlock compute a block's per-update terms,
// AddBlock merges one lane into another. Every kernel is
// allocation-free.

// AddBlock sets dst[i] = Add(dst[i], src[i]). The slices must have equal
// length.
func AddBlock(dst, src []Elem) {
	if len(dst) != len(src) {
		panic("field: AddBlock length mismatch")
	}
	for i, s := range src {
		v := uint64(dst[i]) + uint64(s)
		if v >= P {
			v -= P
		}
		dst[i] = Elem(v)
	}
}

// MulBlock sets dst[i] = Mul(dst[i], src[i]). The slices must have equal
// length.
func MulBlock(dst, src []Elem) {
	if len(dst) != len(src) {
		panic("field: MulBlock length mismatch")
	}
	for i, s := range src {
		dst[i] = Mul(dst[i], s)
	}
}

// ReduceBlock sets dst[i] = Reduce(src[i]). The slices must have equal
// length.
func ReduceBlock(dst []Elem, src []uint64) {
	if len(dst) != len(src) {
		panic("field: ReduceBlock length mismatch")
	}
	for i, x := range src {
		v := (x >> 61) + (x & uint64(P))
		if v >= P {
			v -= P
		}
		dst[i] = Elem(v)
	}
}

// powGatherChunk bounds the stack scratch of PowBlock's window passes.
const powGatherChunk = 64

// PowBlock sets dst[i] = Pow(es[i]) for the table's fixed base. Instead
// of walking all windows per exponent (Pow), it sweeps the block one
// window at a time: window w's 2 KiB table row stays cache-hot across
// the whole block, rows beyond the block's maximum exponent are skipped
// entirely, and the per-window products fold in through MulBlock. Values
// are identical to Pow — a zero window digit selects win[w][0] = 1, the
// multiplicative identity Pow skips. Like Pow, it panics when an
// exponent exceeds the table's bound.
func (t *PowTable) PowBlock(dst []Elem, es []uint64) {
	if len(dst) != len(es) {
		panic("field: PowBlock length mismatch")
	}
	var maxE uint64
	row0 := &t.win[0]
	for i, e := range es {
		dst[i] = row0[e&(powWindowSize-1)]
		maxE = max(maxE, e)
	}
	if maxE > t.bound {
		t.exceeded(maxE)
	}
	var tmp [powGatherChunk]Elem
	for w := 1; w < len(t.win); w++ {
		shift := uint(w * powWindowBits)
		if maxE>>shift == 0 {
			break
		}
		row := &t.win[w]
		for lo := 0; lo < len(es); lo += powGatherChunk {
			hi := lo + powGatherChunk
			if hi > len(es) {
				hi = len(es)
			}
			gather := tmp[:hi-lo]
			for i := range gather {
				gather[i] = row[(es[lo+i]>>shift)&(powWindowSize-1)]
			}
			MulBlock(dst[lo:hi], gather)
		}
	}
}
