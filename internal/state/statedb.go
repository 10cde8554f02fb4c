package state

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/trie"
	"scmove/internal/u256"
)

// Options tunes the state database's storage layer. The zero value is
// in-memory trees.
type Options struct {
	// Backend selects whether the trees are the only copy of the state
	// (KindMemory, the default) or a log-structured file store holds the
	// flat account records, slots and code under them (KindFile).
	Backend backend.Kind
	// Dir is the file backend's directory (required for KindFile).
	Dir string
	// Deprecated: ignored — there is no flat cache. The field stays only
	// because benchmark/layers.go:589 sets it.
	DisableFlatCache bool
	// StorageTreeLimit caps the number of whole per-account storage trees
	// over a file store: after each commit, the least recently touched
	// trees beyond the cap shrink to their top levels and hash stubs
	// (trees.Shrink), whose slots the store serves. 0 keeps every tree
	// whole.
	StorageTreeLimit int
}

// DB is the mutable world state of one chain. It implements evm.StateAccess
// with snapshot/revert journaling, and commits into an authenticated account
// tree of the chain's configured kind for headers and Merkle proofs.
//
// Reads are layered: the per-block decoded working set, then the
// authenticated trees, then — for storage of accounts whose tree is not
// resident — the file store. Commits flush the trees and the file store
// together, so state roots are bit-identical with and without one by
// construction. Every commit records its reverse diff in the retained-root
// history (history.go), which serves the point reads at a past root.
//
// DB is not safe for concurrent use; each chain node owns one.
type DB struct {
	chainID hashing.ChainID
	kind    trie.Kind
	opts    Options

	accountTree trie.Tree                     // addr -> Account.Encode()
	storage     map[hashing.Address]trie.Tree // live storage trees
	codes       map[hashing.Hash][]byte       // content-addressed code
	cache       map[hashing.Address]*Account  // decoded working set (released on Commit)
	records     records                       // backs every *Account of cache and journal
	dirty       map[hashing.Address]struct{}  // accounts to flush on Commit
	dirtyOrder  []hashing.Address             // dirty addresses, insertion order (sorted at Commit)

	file *backend.File // nil: the trees are the only copy
	hist history

	// slotDelta records, per block, the committed pre-image of every
	// storage slot written since the last Commit (first write wins), so the
	// commit batch and the retained-root reverse diffs are exact.
	slotDelta map[backend.SlotKey]prevSlot
	// slotKeyScratch is the reusable sort scratch for appendSlotChanges.
	slotKeyScratch []backend.SlotKey
	// committedScratch is the reusable buffer committedStorage reads a
	// wholesale-replaced account's committed storage into.
	committedScratch []StorageEntry
	// replaced holds, for every account whose storage was installed
	// wholesale since the last Commit (Move2 import, SELFDESTRUCT, stale
	// pruning), the tree that was live before the first install — nil when
	// none was resident and the file store holds the committed slots. Writes to
	// such an account skip slotDelta: Commit diffs its whole storage, old
	// against new, instead.
	replaced map[hashing.Address]trie.Tree
	// newCodes lists code hashes first seen since the last Commit, so the
	// file store can store the blobs.
	newCodes []hashing.Hash

	// storageTouch drives storage-tree eviction over a file store: it holds
	// the trees touched since they last shrank, and the least recently
	// touched shrink first.
	storageTouch map[hashing.Address]uint64
	touchSeq     uint64

	// work counts the tree nodes built for this state: bulk builds, stub
	// expansions and, through TreeWork, the chain's Move2 preparations.
	work trie.Work
	// slotsRead counts the storage entries handed out: one per GetStorage,
	// one per entry StorageEntries and AppendStorage list.
	slotsRead uint64

	keyBuf [32]byte // see treeKey
	valBuf [32]byte // see treeValue

	// flushed is Commit's scratch: the working copy each dirty address
	// flushes, nil for a deletion. Cleared after every Commit.
	flushed []*Account

	logs    []*evm.Log
	journal journal
}

type prevSlot struct {
	val     backend.Word
	existed bool
}

var _ evm.StateAccess = (*DB)(nil)

// NewDB returns an empty state for the given chain, using the chain's state
// tree kind for commitments and proofs, held in memory only.
func NewDB(chainID hashing.ChainID, kind trie.Kind) (*DB, error) {
	return NewDBWith(chainID, kind, Options{})
}

// NewDBWith returns an empty state with explicit storage-layer options.
func NewDBWith(chainID hashing.ChainID, kind trie.Kind, opts Options) (*DB, error) {
	db, err := newDBCore(chainID, kind, opts)
	if err != nil {
		return nil, err
	}
	if db.file != nil && db.file.LiveKeys() > 0 {
		db.Close()
		return nil, fmt.Errorf("new state: %s is not empty (use OpenDB to reopen)", opts.Dir)
	}
	return db, nil
}

// OpenDB reopens a state database from a file store's directory, rebuilding
// the authenticated account tree (and, lazily, the storage trees) from the
// flat records. The rebuilt tree's root must equal the store's last
// committed root — canonical trees make the check exact. That root starts
// the retained-root history; older roots do not survive a reopen.
func OpenDB(chainID hashing.ChainID, kind trie.Kind, opts Options) (*DB, error) {
	if opts.Backend != backend.KindFile {
		return nil, fmt.Errorf("open state: backend %s keeps no store to reopen", opts.Backend)
	}
	db, err := newDBCore(chainID, kind, opts)
	if err != nil {
		return nil, err
	}
	if db.accountTree, err = buildAccountTree(kind, db.file); err != nil {
		db.Close()
		return nil, fmt.Errorf("open state: rebuild account tree: %w", err)
	}
	db.file.IterateCodes(func(h hashing.Hash, code []byte) bool {
		db.codes[h] = code
		return true
	})
	if want, ok := db.file.LatestRoot(); ok {
		if got := db.accountTree.RootHash(); got != want {
			db.Close()
			return nil, fmt.Errorf("open state: rebuilt root %s, store committed %s", got, want)
		}
		db.hist.record(want, revDiff{})
	}
	return db, nil
}

func newDBCore(chainID hashing.ChainID, kind trie.Kind, opts Options) (*DB, error) {
	accountTree, err := trees.New(kind, hashing.AddressSize)
	if err != nil {
		return nil, fmt.Errorf("new state: %w", err)
	}
	db := &DB{
		chainID:      chainID,
		kind:         kind,
		opts:         opts,
		accountTree:  accountTree,
		storage:      make(map[hashing.Address]trie.Tree),
		codes:        make(map[hashing.Hash][]byte),
		cache:        make(map[hashing.Address]*Account),
		dirty:        make(map[hashing.Address]struct{}),
		slotDelta:    make(map[backend.SlotKey]prevSlot),
		replaced:     make(map[hashing.Address]trie.Tree),
		storageTouch: make(map[hashing.Address]uint64),
	}
	switch opts.Backend {
	case backend.KindMemory:
	case backend.KindFile:
		if opts.Dir == "" {
			return nil, fmt.Errorf("new state: file backend needs a directory")
		}
		if db.file, err = backend.OpenFile(opts.Dir); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("new state: unknown backend kind %d", opts.Backend)
	}
	return db, nil
}

// ChainID returns the chain this state belongs to.
func (db *DB) ChainID() hashing.ChainID { return db.chainID }

// TreeKind returns the state tree kind used for commitments.
func (db *DB) TreeKind() trie.Kind { return db.kind }

// Backend returns the file store under the trees (benchmarks and
// conformance tests read it directly), or nil for an in-memory DB.
func (db *DB) Backend() backend.Backend {
	if db.file == nil {
		return nil
	}
	return db.file
}

// Close releases the file store's handles, if there is a store. The DB must
// not be used afterwards.
func (db *DB) Close() error {
	if db.file == nil {
		return nil
	}
	return db.file.Close()
}

// StorageTreeAt returns addr's storage tree if one is resident.
func (db *DB) StorageTreeAt(addr hashing.Address) (trie.Tree, bool) {
	t, ok := db.storage[addr]
	return t, ok
}

// TreeWork returns the count of tree nodes built for this state. A chain's
// Move2 preparations, which build off its state, count here too.
func (db *DB) TreeWork() *trie.Work { return &db.work }

// SlotsRead returns the number of storage entries read so far: one per
// GetStorage, one per entry StorageEntries and AppendStorage list.
func (db *DB) SlotsRead() uint64 { return db.slotsRead }

// account returns the cached working copy of addr, decoding it from the
// account tree on first touch. Returns nil if the account does not exist.
func (db *DB) account(addr hashing.Address) *Account {
	if acct, ok := db.cache[addr]; ok {
		return acct
	}
	enc, ok := db.accountTree.Get(db.treeKey(addr[:]))
	if !ok {
		db.cache[addr] = nil
		return nil
	}
	acct, err := DecodeAccount(enc)
	if err != nil {
		// The tree only ever stores Encode() output; a decode failure is a
		// corrupted-state invariant violation.
		panic(fmt.Sprintf("state: corrupt account record for %s: %v", addr, err))
	}
	p := db.records.add(acct)
	db.cache[addr] = p
	return p
}

// treeKey copies k into the DB's scratch buffer for a call into a tree. The
// trees are reached through an interface, so slicing a parameter or a loop
// variable for the call would move it to the heap — an allocation per call,
// taken before the tree does any work. trie.Tree's Get, Set and Delete retain
// neither slice.
func (db *DB) treeKey(k []byte) []byte { return append(db.keyBuf[:0], k...) }

// treeValue is treeKey's twin for a storage word passed to Set.
func (db *DB) treeValue(v []byte) []byte { return append(db.valBuf[:0], v...) }

// mutable returns the working copy of addr, creating the account if absent,
// and journals the previous version for revert.
func (db *DB) mutable(addr hashing.Address) *Account {
	acct := db.account(addr)
	db.journal.append(journalEntry{kind: jAccount, addr: addr, prevAccount: db.clone(acct)})
	if acct == nil {
		acct = db.records.add(Account{Location: db.chainID})
		db.cache[addr] = acct
	}
	db.markDirty(addr)
	return acct
}

// markDirty records addr for the next Commit. The order list is kept in
// insertion order and sorted once at Commit — a million-account genesis
// made the old keep-it-sorted insertion (O(n) memmove per new address)
// quadratic.
func (db *DB) markDirty(addr hashing.Address) {
	if _, ok := db.dirty[addr]; ok {
		return
	}
	db.dirty[addr] = struct{}{}
	db.dirtyOrder = append(db.dirtyOrder, addr)
}

// clone returns a copy of a in a record of its own, nil for nil.
func (db *DB) clone(a *Account) *Account {
	if a == nil {
		return nil
	}
	return db.records.add(*a)
}

// records hands out the Account records of the working set — decoded,
// created and journaled copies — from chunks of recordChunk. The working set
// and the journal are the only holders of a record, and Commit releases
// both, so reset hands the first chunk to the next block instead of the
// garbage collector. Later chunks go with their block: a chain keeps one
// chunk, not its largest block's working set, which a process running
// dozens of chains would pay for in resident memory.
type records struct {
	chunks [][]Account
	used   int // records handed out since the last reset
}

// recordChunk is the number of records in one chunk (30 KiB).
const recordChunk = 256

// reset takes every record back, keeping the first chunk.
func (r *records) reset() {
	clear(r.chunks[min(len(r.chunks), 1):])
	r.chunks = r.chunks[:min(len(r.chunks), 1)]
	r.used = 0
}

// add returns a record holding a.
func (r *records) add(a Account) *Account {
	c := r.used / recordChunk
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Account, recordChunk))
	}
	p := &r.chunks[c][r.used%recordChunk]
	r.used++
	*p = a
	return p
}

// Exists implements evm.StateAccess.
func (db *DB) Exists(addr hashing.Address) bool {
	return db.account(addr) != nil
}

// CreateContract implements evm.StateAccess.
func (db *DB) CreateContract(addr hashing.Address, code []byte) {
	acct := db.mutable(addr)
	codeCopy := make([]byte, len(code))
	copy(codeCopy, code)
	h := hashing.Sum(codeCopy)
	if _, ok := db.codes[h]; !ok {
		db.journal.append(journalEntry{kind: jCode, key: evm.Word(h)})
		db.codes[h] = codeCopy
		db.newCodes = append(db.newCodes, h)
	}
	acct.CodeHash = h
	acct.Location = db.chainID
}

// GetBalance implements evm.StateAccess.
func (db *DB) GetBalance(addr hashing.Address) u256.Int {
	if acct := db.account(addr); acct != nil {
		return acct.Balance
	}
	return u256.Zero()
}

// AddBalance implements evm.StateAccess.
func (db *DB) AddBalance(addr hashing.Address, amount u256.Int) {
	acct := db.mutable(addr)
	acct.Balance = acct.Balance.Add(amount)
}

// SubBalance implements evm.StateAccess. Callers check sufficiency first
// (evm.transfer); going below zero wraps and is a caller bug.
func (db *DB) SubBalance(addr hashing.Address, amount u256.Int) {
	acct := db.mutable(addr)
	acct.Balance = acct.Balance.Sub(amount)
}

// GetNonce implements evm.StateAccess.
func (db *DB) GetNonce(addr hashing.Address) uint64 {
	if acct := db.account(addr); acct != nil {
		return acct.Nonce
	}
	return 0
}

// SetNonce implements evm.StateAccess.
func (db *DB) SetNonce(addr hashing.Address, nonce uint64) {
	db.mutable(addr).Nonce = nonce
}

// GetCode implements evm.StateAccess.
func (db *DB) GetCode(addr hashing.Address) []byte {
	acct := db.account(addr)
	if acct == nil || acct.CodeHash.IsZero() {
		return nil
	}
	return db.codes[acct.CodeHash]
}

// GetCodeHash implements evm.StateAccess.
func (db *DB) GetCodeHash(addr hashing.Address) hashing.Hash {
	if acct := db.account(addr); acct != nil {
		return acct.CodeHash
	}
	return hashing.ZeroHash
}

// storageTree returns the live storage tree for addr, creating it lazily —
// and, over a file store, building it from the store's flat slots when
// none is resident: a contract first touched, one evicted whole (at most
// trees.StubEntries slots; eviction shrinks a larger tree instead), or any
// after a reopen. The tree is canonical, so the rebuild reproduces the
// committed storage root bit for bit; under go test it panics when it does
// not.
func (db *DB) storageTree(addr hashing.Address) trie.Tree {
	db.touchStorage(addr)
	if t, ok := db.storage[addr]; ok {
		return t
	}
	var t trie.Tree
	if db.file != nil {
		t = db.buildStorageTree(db.fileEntries(addr))
		if testing.Testing() {
			db.checkRebuilt(addr, t)
		}
	} else {
		t = trees.MustNew(db.kind, 32)
	}
	db.storage[addr] = t
	return t
}

// checkRebuilt panics when t, addr's storage tree rebuilt from the file
// store, does not hash to the storage root of addr's committed record: the
// store lost or altered a slot.
func (db *DB) checkRebuilt(addr hashing.Address, t trie.Tree) {
	var want hashing.Hash
	if enc, ok := db.accountTree.Get(db.treeKey(addr[:])); ok {
		acct, err := DecodeAccount(enc)
		if err != nil {
			panic(fmt.Sprintf("state: corrupt account record for %s: %v", addr, err))
		}
		want = acct.StorageRoot
	}
	if got := t.RootHash(); got != want {
		panic(fmt.Sprintf("state: the storage of %s rebuilt from the file store hashes to %s, its committed root is %s", addr, got, want))
	}
}

// buildStorageTree returns the storage tree of exactly these slots, which
// must be what StorageEntries lists: ascending by key, no slot twice, none
// zero.
func (db *DB) buildStorageTree(entries []StorageEntry) trie.Tree {
	t, err := trees.Build(&db.work, db.kind, 32, len(entries), func(i int) (key, value []byte) {
		return entries[i].Key[:], entries[i].Value[:]
	})
	if err != nil {
		panic(fmt.Sprintf("state: build storage tree: %v", err))
	}
	return t
}

// buildAccountTree returns the account tree over the records f holds.
func buildAccountTree(kind trie.Kind, f *backend.File) (trie.Tree, error) {
	var (
		addrs []hashing.Address
		encs  [][]byte
	)
	f.IterateAccounts(func(addr hashing.Address, enc []byte) bool {
		addrs, encs = append(addrs, addr), append(encs, enc)
		return true
	})
	return trees.Build(nil, kind, hashing.AddressSize, len(addrs), func(i int) (key, value []byte) {
		return addrs[i][:], encs[i]
	})
}

// touchStorage refreshes addr's eviction recency.
func (db *DB) touchStorage(addr hashing.Address) {
	if db.opts.StorageTreeLimit <= 0 || db.file == nil {
		return
	}
	db.touchSeq++
	db.storageTouch[addr] = db.touchSeq
}

// GetStorage implements evm.StateAccess: a read of the live tree or, for an
// account whose tree is not resident or a slot under a hash stub, of the
// file store.
func (db *DB) GetStorage(addr hashing.Address, key evm.Word) evm.Word {
	db.slotsRead++
	var w evm.Word
	if t, resident := db.storage[addr]; resident {
		v, _ := t.Get(db.treeKey(key[:]))
		copy(w[:], v)
	} else if db.file != nil {
		v, _ := db.file.Slot(backend.SlotKey{Addr: addr, Key: key})
		w = evm.Word(v)
	}
	return w
}

// SetStorage implements evm.StateAccess; storing the zero word deletes.
func (db *DB) SetStorage(addr hashing.Address, key, value evm.Word) {
	// One tree lookup feeds the journal entry, the existence check, and the
	// per-block committed pre-image.
	t := db.storageTree(addr)
	prevBytes, hadPrev := t.Get(db.treeKey(key[:]))
	var prev evm.Word
	copy(prev[:], prevBytes)
	db.journal.append(journalEntry{
		kind: jStorage, addr: addr, key: key, prevValue: prev, prevExisted: hadPrev,
	})
	sk := backend.SlotKey{Addr: addr, Key: key}
	if _, seen := db.slotDelta[sk]; !seen {
		if _, whole := db.replaced[addr]; !whole {
			// First write this block: the live value still is the committed one.
			db.slotDelta[sk] = prevSlot{val: backend.Word(prev), existed: hadPrev}
		}
	}
	db.markDirty(addr)
	var zero evm.Word
	if value == zero {
		// Fixed-length keys are enforced at this boundary, so errors are
		// impossible; check anyway to honor the Tree contract.
		if err := t.Delete(db.treeKey(key[:])); err != nil {
			panic(fmt.Sprintf("state: storage delete: %v", err))
		}
		return
	}
	if err := t.Set(db.treeKey(key[:]), db.treeValue(value[:])); err != nil {
		panic(fmt.Sprintf("state: storage set: %v", err))
	}
}

// GetLocation implements evm.StateAccess. Absent accounts are implicitly
// local: they have never moved anywhere.
func (db *DB) GetLocation(addr hashing.Address) hashing.ChainID {
	if acct := db.account(addr); acct != nil && acct.Location != 0 {
		return acct.Location
	}
	return db.chainID
}

// SetLocation implements evm.StateAccess.
func (db *DB) SetLocation(addr hashing.Address, chain hashing.ChainID) {
	db.mutable(addr).Location = chain
}

// GetMoveNonce implements evm.StateAccess.
func (db *DB) GetMoveNonce(addr hashing.Address) uint64 {
	if acct := db.account(addr); acct != nil {
		return acct.MoveNonce
	}
	return 0
}

// SetMoveNonce implements evm.StateAccess.
func (db *DB) SetMoveNonce(addr hashing.Address, nonce uint64) {
	db.mutable(addr).MoveNonce = nonce
}

// DeleteAccount implements evm.StateAccess (SELFDESTRUCT).
func (db *DB) DeleteAccount(addr hashing.Address) {
	db.journal.append(journalEntry{
		kind:        jAccount,
		addr:        addr,
		prevAccount: db.clone(db.account(addr)),
	})
	db.cache[addr] = nil
	db.WipeStorage(addr)
}

// StorageLen returns the number of slots addr's storage holds, without
// reading them.
func (db *DB) StorageLen(addr hashing.Address) int {
	if t, ok := db.storage[addr]; ok {
		return t.Len()
	}
	if db.file == nil {
		return 0
	}
	return db.file.SlotCount(addr)
}

// WipeStorage empties addr's storage (the account record is untouched).
func (db *DB) WipeStorage(addr hashing.Address) {
	db.installStorage(addr, trees.MustNew(db.kind, 32))
}

// installStorage makes t the whole storage of addr, journaling the tree it
// displaces as one entry: a revert puts that tree back, whatever its size.
// The displaced tree is never mutated again, so the first one displaced in a
// block still shows (up to the earlier writes slotDelta remembers) what the
// last Commit left — Commit diffs it against the live tree.
func (db *DB) installStorage(addr hashing.Address, t trie.Tree) {
	prev := db.storage[addr] // nil: not resident
	_, again := db.replaced[addr]
	db.journal.append(journalEntry{kind: jStorageTree, addr: addr, prevTree: prev, firstInstall: !again})
	if !again {
		db.replaced[addr] = prev
	}
	db.storage[addr] = t
	db.touchStorage(addr)
	db.markDirty(addr)
}

// AddLog implements evm.StateAccess.
func (db *DB) AddLog(log *evm.Log) {
	db.journal.append(journalEntry{kind: jLog})
	db.logs = append(db.logs, log)
}

// TakeLogs returns and clears the accumulated logs (called per transaction).
func (db *DB) TakeLogs() []*evm.Log {
	logs := db.logs
	db.logs = nil
	return logs
}

// Snapshot implements evm.StateAccess.
func (db *DB) Snapshot() int { return db.journal.len() }

// RevertToSnapshot implements evm.StateAccess.
func (db *DB) RevertToSnapshot(id int) {
	db.journal.revert(db, id)
}

// Commit flushes dirty accounts into the account tree and the file store,
// records the reverse diff in the retained-root history, and returns the
// state root. The journal is discarded: committed state cannot
// be reverted. The decoded working set is released (it would otherwise grow
// monotonically across blocks); the next block re-decodes what it touches.
func (db *DB) Commit() hashing.Hash {
	// markDirty appends in first-touch order; sort once for the
	// deterministic flush (map iteration is randomized).
	slices.SortFunc(db.dirtyOrder, func(a, b hashing.Address) int { return bytes.Compare(a[:], b[:]) })
	reuse := db.hist.reusable()
	accounts, arena := db.flushAccounts(reuse)
	// Drop no-op account transitions (created then deleted in one block, or
	// dirtied but restored by a revert): they would pollute the reverse
	// diffs and append dead file records for nothing.
	batch := backend.Batch{
		Accounts: slices.DeleteFunc(accounts, func(ac backend.AccountChange) bool {
			return bytes.Equal(ac.Prev, ac.Cur)
		}),
		Codes: db.newCodeBlobs(),
	}
	// Materialize the slot delta only now, after the flush: an account
	// deleted at commit has just lost its storage tree, so its slots read
	// back as gone and the batch records their deletion.
	batch.Slots = db.appendSlotChanges(reuse.slots[:0])
	clear(db.dirty)
	db.dirtyOrder = db.dirtyOrder[:0]
	clear(db.slotDelta)
	clear(db.replaced)
	db.newCodes = db.newCodes[:0]
	db.journal.reset()
	// Release the decoded working set: entries are either dirty (now
	// flushed into the tree) or clean read-throughs of it. With the journal
	// reset too, nothing holds a record any more.
	clear(db.cache)
	db.records.reset()
	root := db.accountTree.RootHash()
	if db.file != nil {
		if err := db.file.Commit(root, batch); err != nil {
			panic(fmt.Sprintf("state: backend commit: %v", err))
		}
	}
	db.hist.record(root, revDiff{accounts: batch.Accounts, slots: batch.Slots, arena: arena})
	db.evictStorageTrees()
	return root
}

// flushAccounts writes every dirty account into the account tree and
// returns the account half of the commit batch, in dirtyOrder, with the
// arena that holds every change's previous and new encoding.
//
// The batch is built in the arrays of reuse, the reverse diff this
// commit's record drops from the retained-root ring: no read can need it
// once the commit is done, while the ring keeps every other batch, with its
// arena, for the whole window. An array is replaced only when it is too
// short, by one of exactly the size this commit needs — the arena's size is
// summed before the first copy, so no slice of it is ever stranded by a
// growth reallocation.
func (db *DB) flushAccounts(reuse revDiff) ([]backend.AccountChange, []byte) {
	n := len(db.dirtyOrder)
	accounts := reuse.accounts[:0]
	if cap(accounts) < n {
		accounts = make([]backend.AccountChange, 0, n)
	}
	accounts = accounts[:n]
	// First pass, before any tree write: each account's previous encoding
	// (a view of the tree's value until the second pass copies it), the
	// working copy it flushes, and the arena both need.
	need := 0
	flushed := db.flushed[:0]
	for i, addr := range db.dirtyOrder {
		prev, _ := db.accountTree.Get(db.treeKey(addr[:]))
		acct := db.flushedAccount(addr)
		accounts[i] = backend.AccountChange{Addr: addr, Prev: prev}
		need += len(prev)
		if acct != nil {
			need += acct.encodedSize()
		}
		flushed = append(flushed, acct)
	}
	arena := reuse.arena[:0]
	if cap(arena) < need {
		arena = make([]byte, 0, need)
	}
	for i, addr := range db.dirtyOrder {
		ac := &accounts[i]
		if ac.Prev != nil {
			off := len(arena)
			arena = append(arena, ac.Prev...)
			ac.Prev = arena[off:len(arena):len(arena)]
		}
		acct := flushed[i]
		if acct == nil {
			db.dropCommittedAccount(addr)
			continue
		}
		off := len(arena)
		arena = acct.appendEncoding(arena)
		ac.Cur = arena[off:len(arena):len(arena)]
		if err := db.accountTree.Set(db.treeKey(addr[:]), ac.Cur); err != nil {
			panic(fmt.Sprintf("state: commit set: %v", err))
		}
	}
	clear(flushed)
	db.flushed = flushed[:0]
	return accounts, arena
}

// flushedAccount returns the working copy of a dirty address with its
// storage root brought up to date, or nil when the commit deletes the
// account: it does not exist, or it carries no information.
func (db *DB) flushedAccount(addr hashing.Address) *Account {
	acct, inCache := db.cache[addr]
	if !inCache {
		// Dirty without a working-set entry: the address was touched only
		// through SetStorage (storage writes alone never materialize the
		// record). Load the committed record so the flush updates its
		// storage root instead of mistaking the missing entry for a
		// deletion.
		acct = db.account(addr)
	}
	if acct == nil {
		return nil
	}
	if t, ok := db.storage[addr]; ok {
		acct.StorageRoot = t.RootHash()
	}
	if acct.isEmpty(db.chainID) {
		return nil
	}
	return acct
}

// newCodeBlobs lists the code blobs first stored since the last Commit.
func (db *DB) newCodeBlobs() []backend.CodeBlob {
	var codes []backend.CodeBlob
	for _, h := range db.newCodes {
		if code, ok := db.codes[h]; ok { // reverted codes are gone from the map
			codes = append(codes, backend.CodeBlob{Hash: h, Code: code})
		}
	}
	return codes
}

// dropCommittedAccount removes a deleted (or empty) account's record and
// every trace of its storage: the committed tree entry and the resident
// storage tree. Slots the file store still holds
// are deleted by the slot delta, which is materialized after this runs and
// reads the now-missing tree as all-gone. Without the teardown, storage
// written after an in-block DeleteAccount would outlive the account in the
// resident tree but not in a rebuilt one — an in-memory DB and one over a
// file store would disagree the moment the address is recreated.
func (db *DB) dropCommittedAccount(addr hashing.Address) {
	if err := db.accountTree.Delete(db.treeKey(addr[:])); err != nil {
		panic(fmt.Sprintf("state: commit delete: %v", err))
	}
	delete(db.storage, addr)
	delete(db.storageTouch, addr)
}

// appendSlotChanges appends to slots, sorted, the slot changes of the
// commit batch: the per-block slot pre-image map, and the whole storage of
// every account in replaced. Called after the account flush so commit-time
// deletions read back as missing slots.
//
// slots is grown, when short, to one change per written slot. A replaced
// account's diff grows it further only as far as it actually changes: the
// bound there, every slot of the old storage and of the new, overstates a
// contract returning to an unchanged stale copy (a Move2 home) by its whole
// storage, where the diff is empty.
func (db *DB) appendSlotChanges(slots []backend.SlotChange) []backend.SlotChange {
	if len(db.slotDelta) == 0 && len(db.replaced) == 0 {
		return slots
	}
	if cap(slots)-len(slots) < len(db.slotDelta) {
		slots = append(make([]backend.SlotChange, 0, len(slots)+len(db.slotDelta)), slots...)
	}
	// The key scratch is reused across commits (keys are values, nothing
	// retains them).
	keys := db.slotKeyScratch[:0]
	for sk := range db.slotDelta {
		keys = append(keys, sk)
	}
	slices.SortFunc(keys, func(a, b backend.SlotKey) int {
		if c := bytes.Compare(a.Addr[:], b.Addr[:]); c != 0 {
			return c
		}
		return bytes.Compare(a.Key[:], b.Key[:])
	})
	whole := make([]hashing.Address, 0, len(db.replaced))
	for addr := range db.replaced {
		whole = append(whole, addr)
	}
	slices.SortFunc(whole, func(a, b hashing.Address) int { return bytes.Compare(a[:], b[:]) })
	for i := 0; i < len(keys); {
		sk := keys[i]
		for len(whole) > 0 && bytes.Compare(whole[0][:], sk.Addr[:]) < 0 {
			slots = db.appendStorageDiff(slots, whole[0], nil)
			whole = whole[1:]
		}
		if len(whole) > 0 && whole[0] == sk.Addr {
			// Writes from before the install: they only correct what the
			// displaced tree says the last Commit left.
			j := i
			for j < len(keys) && keys[j].Addr == sk.Addr {
				j++
			}
			slots = db.appendStorageDiff(slots, sk.Addr, keys[i:j])
			whole = whole[1:]
			i = j
			continue
		}
		i++
		prev := db.slotDelta[sk]
		var cur backend.Word
		var exists bool
		if t, ok := db.storage[sk.Addr]; ok {
			if v, found := t.Get(db.treeKey(sk.Key[:])); found {
				copy(cur[:], v)
				exists = true
			}
		}
		if exists == prev.existed && cur == prev.val {
			continue // written, then restored to the committed value
		}
		slots = append(slots, backend.SlotChange{
			Key: sk, Prev: prev.val, Cur: cur,
			PrevExisted: prev.existed, CurExists: exists,
		})
	}
	for _, addr := range whole {
		slots = db.appendStorageDiff(slots, addr, nil)
	}
	db.slotKeyScratch = keys
	return slots
}

// appendStorageDiff appends the slot changes of one account in replaced:
// a merge of its committed storage (both sides ascending by key) with the
// live tree. written lists the account's slotDelta keys, ascending.
func (db *DB) appendStorageDiff(slots []backend.SlotChange, addr hashing.Address, written []backend.SlotKey) []backend.SlotChange {
	old := db.committedStorage(addr, written)
	gone := func(e StorageEntry) {
		slots = append(slots, backend.SlotChange{
			Key: backend.SlotKey{Addr: addr, Key: e.Key}, Prev: e.Value, PrevExisted: true,
		})
	}
	if t, ok := db.storage[addr]; ok {
		t.Iterate(func(k, v []byte) bool {
			for len(old) > 0 && bytes.Compare(old[0].Key[:], k) < 0 {
				gone(old[0])
				old = old[1:]
			}
			ch := backend.SlotChange{Key: backend.SlotKey{Addr: addr, Key: evm.Word(k)}, Cur: evm.Word(v), CurExists: true}
			if len(old) > 0 && old[0].Key == ch.Key.Key {
				ch.Prev, ch.PrevExisted = old[0].Value, true
				old = old[1:]
			}
			if !ch.PrevExisted || ch.Prev != ch.Cur {
				slots = append(slots, ch)
			}
			return true
		})
	}
	for _, e := range old {
		gone(e)
	}
	return slots
}

// committedStorage returns what the last Commit left in the storage of an
// account in replaced, ascending by key: the contents of the tree its first
// install displaced, with the slots written before that install put back to
// their pre-images — or the file store's slots, when none was resident or
// it had shrunk to stubs the store would serve one range at a time. The
// result is the DB's scratch, valid until the next call.
func (db *DB) committedStorage(addr hashing.Address, written []backend.SlotKey) []StorageEntry {
	old := db.committedScratch[:0]
	if t := db.replaced[addr]; t != nil && (db.file == nil || trees.Stubs(t) == 0) {
		t.Iterate(func(k, v []byte) bool {
			old = append(old, StorageEntry{Key: evm.Word(k), Value: evm.Word(v)})
			return true
		})
	} else if db.file != nil {
		db.file.IterateStorage(addr, func(key, val backend.Word) bool {
			old = append(old, StorageEntry{Key: key, Value: val})
			return true
		})
	}
	for _, sk := range written {
		pre := db.slotDelta[sk]
		i, found := slices.BinarySearchFunc(old, sk.Key, func(e StorageEntry, k evm.Word) int {
			return bytes.Compare(e.Key[:], k[:])
		})
		switch {
		case pre.existed && found:
			old[i].Value = pre.val
		case pre.existed:
			old = slices.Insert(old, i, StorageEntry{Key: sk.Key, Value: pre.val})
		case found:
			old = slices.Delete(old, i, i+1)
		}
	}
	db.committedScratch = old
	return old
}

// evictStorageTrees shrinks the least recently touched storage trees
// beyond the configured cap to their top levels and hash stubs
// (trees.Shrink): the file store serves the stubs' slots, and a later write
// rebuilds only the stub it lands in. A tree small enough to be one stub is
// dropped instead. A shrunk tree is touched again by its next write, and
// shrinks again — expanded stubs included — once it is among the least
// recently touched. Only meaningful over a file store, and run after
// Commit, when every tree holds what the store holds; eviction order is
// deterministic (touch sequence, then address).
func (db *DB) evictStorageTrees() {
	limit := db.opts.StorageTreeLimit
	if limit <= 0 || db.file == nil || len(db.storageTouch) <= limit {
		return
	}
	type candidate struct {
		addr hashing.Address
		seq  uint64
	}
	cands := make([]candidate, 0, len(db.storageTouch))
	for addr, seq := range db.storageTouch {
		cands = append(cands, candidate{addr: addr, seq: seq})
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.seq != b.seq {
			return cmp.Compare(a.seq, b.seq)
		}
		return bytes.Compare(a.addr[:], b.addr[:])
	})
	for _, c := range cands[:len(cands)-limit] {
		delete(db.storageTouch, c.addr)
		t, ok := db.storage[c.addr]
		switch {
		case !ok:
		case t.Len() <= trees.StubEntries:
			// It would shrink to one stub: dropped, a write rebuilds it from
			// the store whole, at a stub's cost.
			delete(db.storage, c.addr)
		default:
			trees.Shrink(t, &slotSource{file: db.file, addr: c.addr}, &db.work)
		}
	}
}

// slotSource serves the stubs of one contract's storage tree from the
// contract's sorted run in the file store.
type slotSource struct {
	file *backend.File
	addr hashing.Address
	val  backend.Word // Get's value
}

func (s *slotSource) Get(key []byte) ([]byte, bool) {
	var ok bool
	s.val, ok = s.file.Slot(backend.SlotKey{Addr: s.addr, Key: backend.Word(key)})
	return s.val[:], ok
}

func (s *slotSource) Range(lo, hi []byte, fn func(key, value []byte) bool) {
	s.file.IterateStorageRange(s.addr, backend.Word(lo), backend.Word(hi), fn)
}

func (s *slotSource) String() string { return "the storage of " + s.addr.String() }

// Root returns the last committed state root without flushing.
func (db *DB) Root() hashing.Hash { return db.accountTree.RootHash() }

// GetAccount returns a copy of the committed-or-cached account record.
func (db *DB) GetAccount(addr hashing.Address) (Account, bool) {
	acct := db.account(addr)
	if acct == nil {
		return Account{}, false
	}
	cp := *acct
	if t, ok := db.storage[addr]; ok {
		cp.StorageRoot = t.RootHash()
	}
	return cp, true
}

// ProveAccount returns the membership proof of addr's record in the account
// tree, valid against the root of the last Commit. The account must have
// been committed.
func (db *DB) ProveAccount(addr hashing.Address) ([]byte, error) {
	return db.accountTree.Prove(db.treeKey(addr[:]))
}

// StorageEntries returns all storage of addr in ascending key order — the
// state payload V of a move proof (paper Alg. 1, Move2). Accounts whose
// tree is not resident, or shrunk and unwritten since the last Commit, read
// straight from the file store.
func (db *DB) StorageEntries(addr hashing.Address) []StorageEntry {
	if t, ok := db.treeToRead(addr); ok {
		return db.appendTreeEntries(make([]StorageEntry, 0, t.Len()), t)
	}
	if db.file == nil {
		return nil
	}
	out := db.fileEntries(addr)
	db.slotsRead += uint64(len(out))
	return out
}

// AppendStorage is StorageEntries appending to dst: a caller that reads
// storage over and over (a relayer comparing two copies, a target reading
// a Move2's base) reuses one buffer instead of allocating per read.
func (db *DB) AppendStorage(dst []StorageEntry, addr hashing.Address) []StorageEntry {
	if t, ok := db.treeToRead(addr); ok {
		return db.appendTreeEntries(dst, t)
	}
	if db.file == nil {
		return dst
	}
	n := len(dst)
	dst = db.appendFileEntries(dst, addr)
	db.slotsRead += uint64(len(dst) - n)
	return dst
}

// treeToRead returns the tree a whole-storage read of addr walks: the
// resident one, unless it has hash stubs and no write since the last
// Commit — then it holds what the file store holds, and the store's run is
// one sequential read where the stubs would be one range read each.
func (db *DB) treeToRead(addr hashing.Address) (trie.Tree, bool) {
	t, ok := db.storage[addr]
	if !ok || db.file == nil || trees.Stubs(t) == 0 {
		return t, ok
	}
	_, written := db.dirty[addr]
	return t, written
}

// appendTreeEntries copies t's entries out to dst, ascending by key:
// Iterate's key and value are valid only during its callback.
func (db *DB) appendTreeEntries(out []StorageEntry, t trie.Tree) []StorageEntry {
	n := len(out)
	t.Iterate(func(k, v []byte) bool {
		out = append(out, StorageEntry{Key: evm.Word(k), Value: evm.Word(v)})
		return true
	})
	db.slotsRead += uint64(len(out) - n)
	return out
}

// fileEntries reads addr's committed slots from the file store, ascending by
// key, into one slice of exactly the store's slot count.
func (db *DB) fileEntries(addr hashing.Address) []StorageEntry {
	return db.appendFileEntries(make([]StorageEntry, 0, db.file.SlotCount(addr)), addr)
}

// appendFileEntries appends addr's committed slots in the file store to
// out, ascending by key.
func (db *DB) appendFileEntries(out []StorageEntry, addr hashing.Address) []StorageEntry {
	db.file.IterateStorage(addr, func(key, val backend.Word) bool {
		out = append(out, StorageEntry{Key: key, Value: val})
		return true
	})
	return out
}

// StorageEntry is one storage key-value pair of a contract.
type StorageEntry = evm.StorageEntry

// ImportAccount installs a full account record (Move2 recreation). The
// caller has verified proofs; this writes through the journaled path so a
// failing transaction rolls everything back. storage, a tree of the DB's
// kind that the DB owns from here on, becomes the account's whole storage:
// a stale copy kept from an earlier residency is replaced, not merged into
// — a slot deleted abroad must not come back to life here. A nil storage
// keeps the storage the account has: a delta Move2 has written its changes
// into the stale copy already, slot by slot.
func (db *DB) ImportAccount(addr hashing.Address, acct Account, code []byte, storage trie.Tree) {
	working := db.mutable(addr)
	working.Nonce = acct.Nonce
	working.Balance = acct.Balance
	working.MoveNonce = acct.MoveNonce
	working.Location = db.chainID
	if len(code) > 0 {
		codeCopy := make([]byte, len(code))
		copy(codeCopy, code)
		h := hashing.Sum(codeCopy)
		if _, ok := db.codes[h]; !ok {
			db.journal.append(journalEntry{kind: jCode, key: evm.Word(h)})
			db.codes[h] = codeCopy
			db.newCodes = append(db.newCodes, h)
		}
		working.CodeHash = h
	}
	if storage != nil {
		db.installStorage(addr, storage)
	}
}

// PruneStale removes the storage and code reference of a contract that has
// moved away, keeping the account tombstone (location + move nonce) that
// replay protection needs (paper §III-G(c)). It fails if the contract is
// still local.
func (db *DB) PruneStale(addr hashing.Address) error {
	acct := db.account(addr)
	if acct == nil {
		return fmt.Errorf("state: prune %s: no such account", addr)
	}
	if acct.Location == db.chainID || acct.Location == 0 {
		return fmt.Errorf("state: prune %s: contract is still local", addr)
	}
	working := db.mutable(addr)
	db.WipeStorage(addr)
	working.CodeHash = hashing.ZeroHash
	working.StorageRoot = hashing.ZeroHash
	working.Balance = u256.Zero()
	return nil
}
