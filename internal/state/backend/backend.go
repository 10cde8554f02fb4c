// Package backend holds the flat store under one chain's state: encoded
// account records, raw storage slots and code blobs. The authenticated
// mpt/iavl trees in package state remain the commitment structure (roots
// and Merkle proofs are computed from them); File is a stdlib-only
// log-structured copy of the same data underneath them (append-only
// segment files, in-memory index, periodic compaction) for bounded-RSS
// operation and crash-restart recovery. An in-memory chain has no store:
// its trees are the only copy.
package backend

import "scmove/internal/hashing"

// Kind selects where a chain's flat state lives.
type Kind uint8

// Supported kinds.
const (
	// KindMemory keeps the state in the in-memory trees only.
	KindMemory Kind = iota
	// KindFile adds a log-structured segment store under the trees.
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
// each with its previous value (the reverse diff that package state's
// retained-root history keeps), plus any new code blobs. Accounts and Slots are sorted
// by address / (address, key).
type Batch struct {
	Accounts []AccountChange
	Slots    []SlotChange
	Codes    []CodeBlob
}

// Backend is the flat store behind one chain's state DB; File is its one
// implementation. It is not safe for concurrent mutation; the owning DB
// serializes Commit against reads, matching its own single-writer contract.
type Backend interface {
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
	// Commit applies one committed block's flat delta under its new state
	// root.
	Commit(root hashing.Hash, batch Batch) error
	// LatestRoot returns the most recently committed root.
	LatestRoot() (hashing.Hash, bool)
	// Close releases resources. The backend must not be used afterwards.
	Close() error
}
