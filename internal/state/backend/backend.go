// Package backend abstracts where one chain's flat state — encoded account
// records and raw storage slots — lives. The authenticated mpt/iavl trees
// remain the commitment structure (roots and Merkle proofs are computed
// from them and are bit-identical across backends); a Backend is the
// authoritative, restartable copy of the same data underneath them:
//
//   - Memory wraps the live in-memory trees themselves (the pre-backend
//     behaviour, zero duplication).
//   - File is a stdlib-only log-structured store (append-only segment
//     files, in-memory index, periodic compaction) for bounded-RSS
//     operation and crash-restart recovery.
//
// Both retain reverse diffs for the last K committed roots, so a read-only
// view of the flat state at any recent root can be opened (OpenAt) — what
// the RPC's historical queries read.
package backend

import (
	"errors"

	"scmove/internal/hashing"
)

// Kind selects a backend implementation.
type Kind uint8

// Supported backend kinds.
const (
	// KindMemory serves flat reads from the live in-memory trees.
	KindMemory Kind = iota
	// KindFile serves flat reads from a log-structured segment store.
	KindFile
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMemory:
		return "memory"
	case KindFile:
		return "file"
	default:
		return "unknown"
	}
}

// Word is one raw 32-byte storage value.
type Word = [32]byte

// SlotKey identifies one storage slot of one account.
type SlotKey struct {
	Addr hashing.Address
	Key  Word
}

// AccountChange is one account's transition in a commit batch. Nil encodings
// mean the record is absent on that side.
type AccountChange struct {
	Addr hashing.Address
	Prev []byte
	Cur  []byte
}

// SlotChange is one storage slot's transition in a commit batch.
type SlotChange struct {
	Key                    SlotKey
	Prev, Cur              Word
	PrevExisted, CurExists bool
}

// CodeBlob is one content-addressed code blob first referenced in a commit
// batch. Code is immutable and append-only, so blobs carry no reverse diff.
type CodeBlob struct {
	Hash hashing.Hash
	Code []byte
}

// Batch is the flat delta of one committed block: every account whose
// record changed and every storage slot whose committed value changed,
// each with its previous value (the reverse diff OpenAt is built from),
// plus any new code blobs. Accounts and Slots are sorted by address /
// (address, key).
type Batch struct {
	Accounts []AccountChange
	Slots    []SlotChange
	Codes    []CodeBlob
}

// Reader is a read-only view of flat state. Implementations are safe for
// concurrent readers while no Commit is running.
type Reader interface {
	// Account returns the encoded account record of addr.
	Account(addr hashing.Address) ([]byte, bool)
	// Slot returns the committed value of one storage slot.
	Slot(k SlotKey) (Word, bool)
	// IterateAccounts visits (addr, encoded record) in ascending address
	// order until fn returns false.
	IterateAccounts(fn func(addr hashing.Address, enc []byte) bool)
	// IterateStorage visits addr's slots in ascending key order until fn
	// returns false.
	IterateStorage(addr hashing.Address, fn func(key, val Word) bool)
}

// Backend is the authoritative flat store behind one chain's state DB.
// Implementations are not safe for concurrent mutation; the owning DB
// serializes Commit against reads, matching its own single-writer contract.
type Backend interface {
	Reader

	// Commit applies one committed block's flat delta under its new state
	// root, retaining the reverse diff for OpenAt.
	Commit(root hashing.Hash, batch Batch) error
	// LatestRoot returns the most recently committed root.
	LatestRoot() (hashing.Hash, bool)
	// RetainedRoots lists the committed roots OpenAt currently serves,
	// oldest first (the newest entry is the latest committed root).
	RetainedRoots() []hashing.Hash
	// OpenAt returns a read-only flat view as of a retained committed
	// root. The view is valid until the next Commit.
	OpenAt(root hashing.Hash) (Reader, error)
	// Kind reports the backend implementation.
	Kind() Kind
	// Persistent reports whether the backend holds its own copy of the
	// data (true for the file store), i.e. whether the live trees above it
	// may be evicted and rebuilt from it.
	Persistent() bool
	// Close releases resources. The backend must not be used afterwards.
	Close() error
}

// CodeStore is implemented by backends that persist code blobs (the file
// store); a reopen reads the code table back through it. The memory backend
// does not implement it — the owner's code map is the only copy there.
type CodeStore interface {
	// Code returns the blob with the given content hash.
	Code(h hashing.Hash) ([]byte, bool)
	// IterateCodes visits every stored blob in ascending hash order.
	IterateCodes(fn func(h hashing.Hash, code []byte) bool)
}

// ErrRootNotRetained reports an OpenAt root outside the retained window.
var ErrRootNotRetained = errors.New("backend: root not retained")

// DefaultRetainRoots is the number of committed roots retained for OpenAt.
// It comfortably covers the paper's confirmation depths (p = 2 BFT, p = 6
// PoW) plus proof-building slack.
const DefaultRetainRoots = 8
