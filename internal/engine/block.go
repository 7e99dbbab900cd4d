package engine

import (
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/rng"
)

// BlockBroadcaster is the optional columnar fast path of a Broadcaster:
// a protocol that can compute a whole shard of per-vertex messages in
// one call, amortizing per-message setup (spec walks, sketch state,
// serialization growth) across the shard. The engine calls it per shard
// exactly when the protocol implements it; protocols without a block
// form run the per-vertex Broadcast loop.
//
// Contract: BroadcastBlock(round, views, t, coins, out) must fill
// out[i] with exactly the bits Broadcast(round, views[i], t, coins)
// would produce, so transcripts stay byte-identical across any
// Workers/ShardSize setting (wire/block_parity_test.go enforces this
// over every registered protocol, against a wrapper that hides the
// block form). On error it returns the index within views of the
// failing vertex so the engine's deterministic first-failure rule keeps
// reporting the lowest (round, vertex).
//
// Writers placed in out may be ownership-transferring
// (bitio.NewOwnedWriter): SealRound then steals their buffers instead of
// copying, which is where the block path's last memmove goes away.
type BlockBroadcaster interface {
	Broadcaster
	BroadcastBlock(round int, views []core.VertexView, transcript *Transcript, coins *rng.PublicCoins, out []*bitio.Writer) (int, error)
}
