// Package txpool implements the pending-transaction pool of one chain node:
// admission (signature, chain id, duplicate checks), FIFO ordering with
// per-sender nonce sequencing, and batch selection for block proposals.
package txpool

import (
	"errors"
	"fmt"
	"sync"

	"scmove/internal/hashing"
	"scmove/internal/types"
)

// Errors returned by Add.
var (
	ErrDuplicate = errors.New("txpool: transaction already pending")
	ErrPoolFull  = errors.New("txpool: pool is full")
)

// Pool holds pending transactions for one chain. It is safe for concurrent
// use: the discrete-event simulator serializes access on its event loop,
// but the RPC front door calls Add from arbitrary handler goroutines while
// the consensus driver drains via NextBatch/Remove, so every method takes
// an internal mutex. Signature recovery — the expensive ECDSA work — runs
// outside the lock; admission decisions (duplicate, capacity, insertion
// order) are re-checked and applied under it, so single-threaded callers
// observe exactly the historical semantics.
type Pool struct {
	chainID hashing.ChainID
	limit   int

	mu      sync.Mutex
	queue   []*entry
	pending map[hashing.Hash]struct{}

	// Selection scratch reused across NextBatch calls so the per-proposal
	// hot path allocates nothing beyond the returned slice. All are cleared
	// (not freed) between calls.
	selScratch []*types.Transaction
	chainOf    map[hashing.Address]int    // sender → index into lastNonce this pass
	nonceMemo  map[hashing.Address]uint64 // committed nonce, one nonceOf per sender
	lastNonce  []uint64                   // last selected nonce per selecting sender

	dropScratch map[hashing.Hash]struct{} // Remove's id set, empty between calls
}

type entry struct {
	tx     *types.Transaction
	sender hashing.Address
	id     hashing.Hash // tx.ID() captured at admission; an ID() call encodes and hashes the whole tx
}

// New returns a pool for the given chain holding at most limit transactions.
// The pending set grows on demand: limits are commonly generous (100k) while
// steady-state occupancy is tiny, so sizing the map up front wastes megabytes
// per node.
func New(chainID hashing.ChainID, limit int) *Pool {
	return &Pool{
		chainID:     chainID,
		limit:       limit,
		pending:     make(map[hashing.Hash]struct{}),
		chainOf:     make(map[hashing.Address]int),
		nonceMemo:   make(map[hashing.Address]uint64),
		dropScratch: make(map[hashing.Hash]struct{}),
	}
}

// Len returns the number of pending transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Add validates and enqueues a transaction. The signature is recovered
// at most once (Sender memoizes it on the object): stateless checks and the
// duplicate check run first (they are cheap and need no crypto), then a
// single Sender call both authenticates the transaction and yields the
// sender the pool keys nonce sequencing on.
//
// The duplicate check runs before the capacity check: an idempotent
// resubmission of an already-pending transaction must report ErrDuplicate
// even when the pool is full — it consumes no slot, and callers treat
// ErrPoolFull as capacity pressure worth backing off for.
//
// The duplicate/capacity pre-check and the insertion are two critical
// sections with the ECDSA recovery between them, so the pool mutex is
// never held across crypto (holding it would serialize signature checks
// behind one lock and stall the consensus driver). The insertion section
// re-checks both conditions: two goroutines racing the same transaction
// resolve to exactly one admission and one ErrDuplicate. For a
// single-threaded caller the re-check is a no-op and the decision order —
// stateless, duplicate, capacity, signature — is the historical one.
func (p *Pool) Add(tx *types.Transaction) error {
	tx.CheckID()
	if err := tx.ValidateStateless(p.chainID); err != nil {
		return fmt.Errorf("admit tx: %w", err)
	}
	id := tx.ID()
	p.mu.Lock()
	if _, dup := p.pending[id]; dup {
		p.mu.Unlock()
		return ErrDuplicate
	}
	if len(p.queue) >= p.limit {
		p.mu.Unlock()
		return ErrPoolFull
	}
	p.mu.Unlock()
	sender, err := tx.Sender()
	if err != nil {
		return fmt.Errorf("admit tx: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.pending[id]; dup {
		return ErrDuplicate
	}
	if len(p.queue) >= p.limit {
		return ErrPoolFull
	}
	p.pending[id] = struct{}{}
	p.queue = append(p.queue, &entry{tx: tx, sender: sender, id: id})
	return nil
}

// AddBatch admits txs in input order and returns one error slot per
// transaction. All senders are recovered first via types.RecoverSenders, so
// the ECDSA work fans out across the crypto worker pool while admission
// itself — ordering, duplicate, and capacity decisions — stays strictly
// serial and therefore identical to calling Add in a loop.
func (p *Pool) AddBatch(txs []*types.Transaction) []error {
	_, _ = types.RecoverSenders(txs) // warm memo + cache; failures re-surface in Add
	errs := make([]error, len(txs))
	for i, tx := range txs {
		errs[i] = p.Add(tx)
	}
	return errs
}

// NextBatch selects up to max transactions in FIFO order, respecting
// per-sender nonce sequencing against the provided current account nonces:
// a transaction whose nonce is not the sender's next is skipped (left in
// the pool) so it can run in a later block; a sender's consecutive nonces
// chain within one batch.
//
// Selection does not consume: the batch stays pending until Remove (called
// by the chain when a block commits). A consensus round that fails after
// proposing must not destroy its transactions — under message loss that
// would silently drop client traffic every failed round. Stale entries
// (nonce below the account's *committed* nonce) are evicted here: typically
// idempotent resubmissions of a transaction that already landed, which must
// never re-execute and overwrite a success receipt with a nonce failure.
// Eviction deliberately ignores the speculative next-nonce advanced for
// batch-mates selected in this same pass: those selections are not
// committed yet, and evicting against them would destroy a competing
// same-nonce transaction that must survive if the proposed block fails.
func (p *Pool) NextBatch(max int, nonceOf func(hashing.Address) uint64) []*types.Transaction {
	if max <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.chainOf)
	clear(p.nonceMemo)
	sel := p.selScratch[:0]
	lastNonce := p.lastNonce[:0]
	keep := p.queue[:0]
	for _, e := range p.queue {
		base, seen := p.nonceMemo[e.sender]
		if !seen {
			base = nonceOf(e.sender)
			p.nonceMemo[e.sender] = base
		}
		if e.tx.Nonce < base {
			delete(p.pending, e.id)
			continue
		}
		keep = append(keep, e)
		if len(sel) >= max {
			continue
		}
		ci, selecting := p.chainOf[e.sender]
		want := base
		if selecting {
			want = lastNonce[ci] + 1
		}
		if e.tx.Nonce != want {
			continue
		}
		if !selecting {
			ci = len(lastNonce)
			lastNonce = append(lastNonce, 0)
			p.chainOf[e.sender] = ci
		}
		lastNonce[ci] = e.tx.Nonce
		sel = append(sel, e.tx)
	}
	clear(p.queue[len(keep):]) // release stale entries to the GC
	p.queue = keep
	p.lastNonce = lastNonce
	batch := make([]*types.Transaction, len(sel))
	copy(batch, sel)
	// The scratch keeps its capacity, not the selection: a committed
	// block's transactions must not stay reachable from the pool.
	clear(sel)
	p.selScratch = sel[:0]
	return batch
}

// Remove drops the given transactions (e.g. a committed block's), keeping
// the survivors in FIFO order. Ids that are not pending are ignored. The
// queue is compacted in one pass however many ids there are: a block's
// worth of single-id removals, each a scan and a splice, cost O(pending ×
// block) pointer moves under the lock.
func (p *Pool) Remove(ids ...hashing.Hash) {
	p.mu.Lock()
	defer p.mu.Unlock()
	drop := p.dropScratch
	for _, id := range ids {
		if _, ok := p.pending[id]; ok {
			delete(p.pending, id)
			drop[id] = struct{}{}
		}
	}
	if len(drop) == 0 {
		return
	}
	keep := p.queue[:0]
	for _, e := range p.queue {
		if _, gone := drop[e.id]; !gone {
			keep = append(keep, e)
		}
	}
	clear(p.queue[len(keep):]) // release dropped entries to the GC
	p.queue = keep
	clear(drop)
}
