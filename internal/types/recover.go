package types

import (
	"scmove/internal/hashing"
	"scmove/internal/keys"
)

// Deprecated: there is no sender cache. A transaction memoizes its own
// verified sender (verifiedID); no state is shared across copies. This
// no-op is kept only because benchmark/layers.go:246, :761 and
// benchmark/wl_rpc.go:585 call it. It goes, with the
// types.recover_hit_ns and types.sender_cache_hit_ratio probes, in the next
// PR that may edit benchmark/.
func SetSenderCacheCapacity(capacity int) {}

// Deprecated: see SetSenderCacheCapacity; every field is always zero.
type SenderCacheStats struct {
	Hits, Misses, Evictions uint64
}

// Deprecated: see SetSenderCacheCapacity; benchmark/wl_rpc.go:588 and :594
// are its only users. It always returns zero stats.
func ReadSenderCacheStats() SenderCacheStats { return SenderCacheStats{} }

// RecoverSenders recovers the sender of every transaction in txs and returns
// them in input order, with a per-index error for every transaction that
// failed. It is the batch front door the txpool and ApplyBlock use to pull
// signature recovery off the serial execution path: all ECDSA work for a
// block completes (in parallel) before the strictly sequential EVM loop
// starts, and because results are indexed by input position the outcome is
// bit-identical at every GOMAXPROCS.
//
// The cheap tier (a pending signature's From, the verifiedID memo) runs
// inline and only the misses go to keys.VerifyBatch. A block of objects
// that already verified — a proposer applying its own proposal — is all
// memo hits, and the pool's FIFO may hold thousands of queued client
// signatures: a hit must not wait behind them. Duplicate pointers share the
// first occurrence's result. The workers only verify: the memo is seeded
// afterwards on the caller's goroutine, as WaitSig does.
func RecoverSenders(txs []*Transaction) ([]hashing.Address, []error) {
	addrs := make([]hashing.Address, len(txs))
	errs := make([]error, len(txs))
	var (
		misses  []int                // index of each distinct miss
		missIdx map[*Transaction]int // first index of each missed pointer
		dups    [][2]int             // (index, first index) of repeated misses
	)
	for i, tx := range txs {
		if j, seen := missIdx[tx]; seen {
			dups = append(dups, [2]int{i, j})
			continue
		}
		if addr, ok := tx.knownSender(); ok {
			addrs[i] = addr
			continue
		}
		if missIdx == nil {
			missIdx = make(map[*Transaction]int)
		}
		missIdx[tx] = i
		misses = append(misses, i)
	}
	digests := make([]hashing.Hash, len(misses))
	sigs := make([]keys.Signature, len(misses))
	for k, i := range misses {
		digests[k], sigs[k] = txs[i].ID(), txs[i].Sig
	}
	signers, verrs := keys.VerifyBatch(digests, sigs)
	for k, i := range misses {
		addrs[i], errs[i] = txs[i].acceptSender(signers[k], verrs[k])
	}
	for _, d := range dups {
		addrs[d[0]], errs[d[0]] = addrs[d[1]], errs[d[1]]
	}
	return addrs, errs
}
