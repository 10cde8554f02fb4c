package types

import (
	"sync"
	"sync/atomic"

	"scmove/internal/hashing"
	"scmove/internal/keys"
)

// The sender cache memoizes signature recovery *across transaction copies*.
// The per-object verifiedID field on Transaction already short-circuits
// repeat Sender calls on the same pointer, but the system routinely re-owns
// the same signed bytes as fresh objects: BFT consensus decodes the
// proposal payload before ApplyBlock, relayers resubmit retained signed
// transactions, and block-sync replays whole tx lists. Each of those copies
// would re-run a ~50 µs P-256 verification for content that already checked
// out. The cache is content-addressed — tx ID plus a digest of the exact
// signature bytes — so it is hit only by the identical (content, signature)
// pair that previously verified; replaying a signature on different content
// changes the ID and misses, and a signature by another key changes the
// signature digest and misses. Signing is deterministic (RFC 6979), so the
// same key re-signing the same content yields the same bytes and rightly
// hits.

// senderCacheEntry is one recovered (tx ID, signature) → address mapping,
// linked into an intrusive LRU list so hits and evictions allocate nothing.
type senderCacheEntry struct {
	id         hashing.Hash
	sigSum     hashing.Hash
	addr       hashing.Address
	prev, next *senderCacheEntry
}

type senderCacheState struct {
	mu      sync.Mutex
	cap     int
	entries map[hashing.Hash]*senderCacheEntry
	// LRU list: head = most recent. At capacity, store reuses the evicted
	// tail entry directly; free holds entries recycled by a cache reset
	// (SetSenderCacheCapacity), so both a full cache and a refilling one
	// run at a zero-allocation steady state.
	head, tail *senderCacheEntry
	free       *senderCacheEntry

	hits, misses, evictions atomic.Uint64
}

// DefaultSenderCacheCapacity bounds the process-wide sender cache. The
// window that matters is admission→apply per in-flight transaction, summed
// over every chain in the process (parallel bench cells share the cache);
// 16k entries of ~120 bytes keep that window resident for well under 2 MB.
const DefaultSenderCacheCapacity = 16384

var senderCache = newSenderCacheState(DefaultSenderCacheCapacity)

func newSenderCacheState(capacity int) *senderCacheState {
	return &senderCacheState{
		cap:     capacity,
		entries: make(map[hashing.Hash]*senderCacheEntry, capacity),
	}
}

// SetSenderCacheCapacity clears the sender cache and re-bounds it (tests
// and memory-constrained deployments). Capacity <= 0 restores the default.
// The discarded entries are chained onto the free list (up to the new
// capacity; any surplus is left to the GC), so refilling the resized cache
// recycles them instead of allocating.
func SetSenderCacheCapacity(capacity int) {
	if capacity <= 0 {
		capacity = DefaultSenderCacheCapacity
	}
	c := senderCache
	c.mu.Lock()
	e := c.head
	for n := 0; e != nil && n < capacity; n++ {
		next := e.next
		e.prev, e.next = nil, c.free
		c.free = e
		e = next
	}
	c.cap = capacity
	c.entries = make(map[hashing.Hash]*senderCacheEntry, capacity)
	c.head, c.tail = nil, nil
	c.mu.Unlock()
}

// SenderCacheStats is a monotonic snapshot of sender-cache effectiveness.
type SenderCacheStats struct {
	Hits, Misses, Evictions uint64
}

// ReadSenderCacheStats returns the current cumulative counters. Harnesses
// diff two snapshots and report the delta through metrics.Counters.
func ReadSenderCacheStats() SenderCacheStats {
	return SenderCacheStats{
		Hits:      senderCache.hits.Load(),
		Misses:    senderCache.misses.Load(),
		Evictions: senderCache.evictions.Load(),
	}
}

// sigDigest hashes the exact signature bytes (public key, R, S) so cache
// hits require the same signature that originally verified, not merely the
// same signed content.
func sigDigest(sig *keys.Signature) hashing.Hash {
	h := hashing.AcquireHasher()
	h.LenPrefixed(sig.PubKey)
	h.LenPrefixed(sig.R)
	h.LenPrefixed(sig.S)
	d := h.Sum()
	hashing.ReleaseHasher(h)
	return d
}

// lookup returns the cached signer for (id, sig) if that exact pair
// verified before.
func (c *senderCacheState) lookup(id hashing.Hash, sig *keys.Signature) (hashing.Address, bool) {
	sum := sigDigest(sig)
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok || e.sigSum != sum {
		c.mu.Unlock()
		c.misses.Add(1)
		return hashing.Address{}, false
	}
	c.moveToFront(e)
	addr := e.addr
	c.mu.Unlock()
	c.hits.Add(1)
	return addr, true
}

// store records a successful verification, evicting the least recently used
// entry at capacity.
func (c *senderCacheState) store(id hashing.Hash, sig *keys.Signature, addr hashing.Address) {
	sum := sigDigest(sig)
	c.mu.Lock()
	if e, ok := c.entries[id]; ok {
		// Same content under another valid signature (malleated, or signed
		// with a random nonce elsewhere): keep the newest signature.
		e.sigSum = sum
		e.addr = addr
		c.moveToFront(e)
		c.mu.Unlock()
		return
	}
	var e *senderCacheEntry
	if len(c.entries) >= c.cap {
		e = c.evictTail()
	} else if c.free != nil {
		e, c.free = c.free, c.free.next
	} else {
		e = &senderCacheEntry{}
	}
	e.id, e.sigSum, e.addr = id, sum, addr
	c.entries[id] = e
	c.pushFront(e)
	c.mu.Unlock()
}

// evictTail unlinks and returns the least recently used entry for reuse.
// Caller holds the lock and guarantees the cache is non-empty.
func (c *senderCacheState) evictTail() *senderCacheEntry {
	e := c.tail
	c.unlink(e)
	delete(c.entries, e.id)
	c.evictions.Add(1)
	return e
}

func (c *senderCacheState) pushFront(e *senderCacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *senderCacheState) unlink(e *senderCacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *senderCacheState) moveToFront(e *senderCacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// RecoverSenders recovers the sender of every transaction in txs and returns
// them in input order, with a per-index error for every transaction that
// failed. It is the batch front door the txpool and ApplyBlock use to pull
// signature recovery off the serial execution path: all ECDSA work for a
// block completes (in parallel) before the strictly sequential EVM loop
// starts, and because results are indexed by input position the outcome is
// bit-identical at every GOMAXPROCS.
//
// The cheap tiers (verifiedID memo, sender cache) run inline and only the
// misses go to keys.VerifyBatch. A block of consensus-decoded copies is
// nearly all cache hits, and the pool's FIFO may hold thousands of queued
// client signatures: a hit must not wait behind them. Each distinct
// transaction consults the cache once; duplicate pointers share the first
// occurrence's result. The workers only verify: the memo and the sender
// cache are seeded afterwards on the caller's goroutine, as WaitSig does.
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
