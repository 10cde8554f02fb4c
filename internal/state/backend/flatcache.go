package backend

import "scmove/internal/hashing"

// FlatCache is the flat-state read accelerator: a bounded LRU of decoded
// account records and raw storage slots, so hot reads skip the trie walk
// (and its hashing-adjacent node chasing) entirely. It is an exact mirror,
// not a heuristic one — the owning DB write-throughs every mutation that
// could make an entry stale:
//
//   - account entries mirror the *committed* account tree: populated on
//     tree loads, rewritten from the commit dirty-set (the precise
//     invalidation the statedb already tracks);
//   - slot entries mirror the *live* storage trees: write-through on
//     SetStorage and on journal revert, with per-address wipe epochs
//     covering whole-storage deletion (SELFDESTRUCT, stale-state pruning).
//
// Warm hits are zero-alloc: entries are recycled through an embedded free
// list, and lookups only splice intrusive list links. Not safe for
// concurrent use.
// The account value type A is the owner's decoded record (state.Account),
// kept generic so this package stays importable from the state package.
type FlatCache[A any] struct {
	accounts *lru[hashing.Address, accVal[A]]
	slots    *lru[SlotKey, slotVal]
	epochs   map[hashing.Address]uint32 // storage wipe epoch per address
	hits     uint64
	misses   uint64
}

// accVal is one cached account read result. exists=false caches a
// confirmed miss (reads of absent accounts are common and cost a full tree
// walk each time otherwise).
type accVal[A any] struct {
	acct   A
	exists bool
}

type slotVal struct {
	val    Word
	exists bool
	epoch  uint32
}

// Default flat-cache capacities: enough for the hot set of the heaviest
// shipped workloads while staying a bounded O(1)-per-chain cost. Sizing is
// deliberately modest — a cache line costs ~165 bytes with map overhead,
// and workloads with one-shot reads (replay-style scans) only ever churn
// the LRU tail, so extra capacity would buy hit rate for no one.
const (
	DefaultFlatAccounts = 2048
	DefaultFlatSlots    = 4096
)

// NewFlatCache returns a cache holding up to maxAccounts account records
// and maxSlots storage slots (0 selects the defaults).
func NewFlatCache[A any](maxAccounts, maxSlots int) *FlatCache[A] {
	if maxAccounts <= 0 {
		maxAccounts = DefaultFlatAccounts
	}
	if maxSlots <= 0 {
		maxSlots = DefaultFlatSlots
	}
	return &FlatCache[A]{
		accounts: newLRU[hashing.Address, accVal[A]](maxAccounts),
		slots:    newLRU[SlotKey, slotVal](maxSlots),
		epochs:   make(map[hashing.Address]uint32),
	}
}

// Account returns the cached committed record of addr. The middle result
// reports whether the account exists; the last whether the cache knew.
func (c *FlatCache[A]) Account(addr hashing.Address) (A, bool, bool) {
	rec, ok := c.accounts.get(addr)
	if !ok {
		c.misses++
		var zero A
		return zero, false, false
	}
	c.hits++
	return rec.acct, rec.exists, true
}

// PutAccount caches the committed record of addr.
func (c *FlatCache[A]) PutAccount(addr hashing.Address, acct A, exists bool) {
	c.accounts.put(addr, accVal[A]{acct: acct, exists: exists})
}

// DropAccount forgets addr's record (used when a commit deletes it — a
// negative PutAccount would also be correct, but tombstones of dead
// accounts are not worth cache slots).
func (c *FlatCache[A]) DropAccount(addr hashing.Address) {
	c.accounts.drop(addr)
}

// Slot returns the cached live value of one storage slot. The middle
// result reports whether the slot is set; the last whether the cache knew.
func (c *FlatCache[A]) Slot(k SlotKey) (Word, bool, bool) {
	v, ok := c.slots.get(k)
	if !ok || v.epoch != c.epochs[k.Addr] {
		c.misses++
		return Word{}, false, false
	}
	c.hits++
	return v.val, v.exists, true
}

// PutSlot caches the live value of one storage slot (exists=false caches a
// confirmed empty slot).
func (c *FlatCache[A]) PutSlot(k SlotKey, val Word, exists bool) {
	c.slots.put(k, slotVal{val: val, exists: exists, epoch: c.epochs[k.Addr]})
}

// UpdateSlot refreshes k only if it is already cached. Write paths use this
// instead of PutSlot so write-only slots never earn a cache line (a slot
// enters the cache when a read proves it hot); a missed update just leaves
// the cache not knowing the slot, which the next read repairs.
func (c *FlatCache[A]) UpdateSlot(k SlotKey, val Word, exists bool) {
	c.slots.update(k, slotVal{val: val, exists: exists, epoch: c.epochs[k.Addr]})
}

// WipeStorage invalidates every cached slot of addr in O(1) by bumping the
// address's epoch; stale entries age out of the LRU naturally.
func (c *FlatCache[A]) WipeStorage(addr hashing.Address) {
	c.epochs[addr]++
}

// Stats returns the hit/miss counts since creation.
func (c *FlatCache[A]) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Len returns the resident entry counts.
func (c *FlatCache[A]) Len() (accounts, slots int) {
	return c.accounts.len(), c.slots.len()
}

// lru is a bounded map + intrusive doubly-linked recency list. Entries are
// pre-linked through a free list so steady-state churn allocates nothing
// beyond the map's own bucket reuse.
type lru[K comparable, V any] struct {
	max     int
	entries map[K]*lruEntry[K, V]
	head    *lruEntry[K, V] // most recent
	tail    *lruEntry[K, V] // least recent
	free    *lruEntry[K, V]
	chunk   []lruEntry[K, V] // bulk-allocated fresh entries, handed out one by one
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	// No capacity hint: hinting max would zero whole bucket arrays up
	// front, taxing every DB construction (and every short-lived chain)
	// for a cache that may never fill. Growth amortizes on caches that do.
	return &lru[K, V]{max: max, entries: make(map[K]*lruEntry[K, V])}
}

func (l *lru[K, V]) len() int { return len(l.entries) }

func (l *lru[K, V]) get(k K) (V, bool) {
	e, ok := l.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.touch(e)
	return e.val, true
}

// update rewrites k in place when present and reports whether it was.
func (l *lru[K, V]) update(k K, v V) bool {
	e, ok := l.entries[k]
	if !ok {
		return false
	}
	e.val = v
	l.touch(e)
	return true
}

func (l *lru[K, V]) put(k K, v V) {
	if e, ok := l.entries[k]; ok {
		e.val = v
		l.touch(e)
		return
	}
	var e *lruEntry[K, V]
	switch {
	case len(l.entries) >= l.max:
		e = l.tail
		l.unlink(e)
		delete(l.entries, e.key)
	case l.free != nil:
		e = l.free
		l.free = e.next
		e.next = nil
	default:
		// Fresh entries come from bulk chunks: a cold cache warming up
		// costs one allocation per chunk, not one per key.
		if len(l.chunk) == 0 {
			n := l.max - len(l.entries)
			if n > 64 {
				n = 64
			}
			l.chunk = make([]lruEntry[K, V], n)
		}
		e = &l.chunk[0]
		l.chunk = l.chunk[1:]
	}
	e.key, e.val = k, v
	l.entries[k] = e
	l.pushFront(e)
}

func (l *lru[K, V]) drop(k K) {
	e, ok := l.entries[k]
	if !ok {
		return
	}
	l.unlink(e)
	delete(l.entries, k)
	var zeroK K
	var zeroV V
	e.key, e.val = zeroK, zeroV
	e.next = l.free
	e.prev = nil
	l.free = e
}

func (l *lru[K, V]) touch(e *lruEntry[K, V]) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

func (l *lru[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lru[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
