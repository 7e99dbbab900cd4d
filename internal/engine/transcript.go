package engine

import "repro/internal/bitio"

// message is one sealed broadcast: a private copy of the sender's bits.
type message struct {
	buf  []byte
	nbit int
}

// Transcript gives read access to all broadcasts of completed rounds.
//
// Immutability guarantee: a round becomes visible only when it is sealed,
// and sealing copies every message's bits into buffers owned by the
// transcript. After SealRound returns, nothing — not the engine, not a
// protocol that retained the *bitio.Writer it handed back, not a later
// round appending to a recycled writer — can change a single bit of that
// round. Message therefore always returns a reader over a stable snapshot,
// which is what makes concurrent Broadcast calls in the next round safe.
//
// Besides the player lane, every sealed round has one referee feedback
// slot (the adaptive model's downlink): SealRound opens it empty, and
// SealFeedback — called single-threaded at the round barrier, before the
// next round's broadcasts start — fills it. A non-adaptive protocol's
// transcript simply has every feedback slot empty, which encodes
// identically to a transcript recorded before feedback existed modulo
// the wire version byte (see internal/wire).
type Transcript struct {
	rounds   [][]message
	feedback []message // feedback[r] is the referee's broadcast after round r
}

// NewTranscript returns an empty transcript with no sealed rounds.
func NewTranscript() *Transcript { return &Transcript{} }

// Rounds returns the number of sealed (completed) rounds.
func (t *Transcript) Rounds() int { return len(t.rounds) }

// Message returns a fresh reader over player v's broadcast in the given
// sealed round. Each call returns an independent reader; readers never
// share position state.
func (t *Transcript) Message(round, v int) *bitio.Reader {
	m := t.rounds[round][v]
	return bitio.NewReader(m.buf, m.nbit)
}

// AppendMessage appends player v's broadcast in the given sealed round to
// dst as ⌈BitLen/8⌉ packed bytes (LSB-first, bitio.Writer's layout) and
// returns the extended slice. It copies, so nothing the caller holds
// aliases sealed storage; codecs use it to move a message in one copy
// instead of reading it back bit by bit.
func (t *Transcript) AppendMessage(dst []byte, round, v int) []byte {
	return append(dst, t.rounds[round][v].buf...)
}

// BitLen returns the length in bits of player v's broadcast in the given
// sealed round.
func (t *Transcript) BitLen(round, v int) int { return t.rounds[round][v].nbit }

// Players returns the number of player slots in the given sealed round.
// Every round of an engine execution has one slot per vertex; the wire
// codec (internal/wire) uses this to serialize rounds without needing the
// graph that produced them.
func (t *Transcript) Players(round int) int { return len(t.rounds[round]) }

// SealRound appends one completed round of broadcasts, copying each
// writer's bits so the sealed round is immune to later writer mutation.
// A nil writer seals as an empty message. The engine calls this exactly
// once per round after the round's barrier; it is exported so reference
// executors (tests, the golden sequential baseline) can build transcripts
// under the same immutability contract.
func (t *Transcript) SealRound(msgs []*bitio.Writer) {
	sealed := make([]message, len(msgs))
	for v, w := range msgs {
		if w == nil || w.Len() == 0 {
			continue
		}
		if w.Owned() {
			// Ownership-transferring writer (block path): steal the
			// buffer instead of copying. Detach severs the writer from
			// the bits, so the immutability guarantee holds identically.
			buf, nbit := w.Detach()
			sealed[v] = message{buf: buf, nbit: nbit}
			continue
		}
		buf := make([]byte, len(w.Bytes()))
		copy(buf, w.Bytes())
		sealed[v] = message{buf: buf, nbit: w.Len()}
	}
	t.rounds = append(t.rounds, sealed)
	t.feedback = append(t.feedback, message{})
}

// SealFeedback records the referee's feedback broadcast for the most
// recently sealed round, copying the writer's bits under the same
// immutability contract as SealRound. A nil or empty writer leaves the
// slot empty — the transcript of a silent or non-adaptive referee. The
// engine calls this exactly once per round, single-threaded at the round
// barrier; it panics if no round has been sealed or the slot is already
// filled, because feedback written at any other time could race with the
// next round's broadcasts.
func (t *Transcript) SealFeedback(w *bitio.Writer) {
	if len(t.feedback) == 0 {
		panic("engine: SealFeedback before any SealRound")
	}
	last := len(t.feedback) - 1
	if t.feedback[last].nbit != 0 {
		panic("engine: feedback already sealed for the current round")
	}
	if w == nil || w.Len() == 0 {
		return
	}
	if w.Owned() {
		buf, nbit := w.Detach()
		t.feedback[last] = message{buf: buf, nbit: nbit}
		return
	}
	buf := make([]byte, len(w.Bytes()))
	copy(buf, w.Bytes())
	t.feedback[last] = message{buf: buf, nbit: w.Len()}
}

// Feedback returns a fresh reader over the referee's feedback broadcast
// sealed after the given round. An empty slot (non-adaptive protocol, or
// a referee with nothing to say) yields an empty reader.
func (t *Transcript) Feedback(round int) *bitio.Reader {
	m := t.feedback[round]
	return bitio.NewReader(m.buf, m.nbit)
}

// AppendFeedback appends the referee's feedback broadcast sealed after the
// given round to dst, packed like AppendMessage, and returns the extended
// slice (dst itself for an empty slot).
func (t *Transcript) AppendFeedback(dst []byte, round int) []byte {
	return append(dst, t.feedback[round].buf...)
}

// FeedbackBitLen returns the length in bits of the referee's feedback
// broadcast sealed after the given round (0 for an empty slot).
func (t *Transcript) FeedbackBitLen(round int) int { return t.feedback[round].nbit }
