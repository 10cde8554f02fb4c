// Package trie defines the authenticated key-value tree abstraction shared
// by every blockchain in the system, together with the Merkle-proof contract
// that the Move protocol relies on (paper §II, Fig. 1).
//
// Two implementations exist: internal/mpt, a hex-nibble Merkle Patricia trie
// standing in for Ethereum's state trie, and internal/iavl, a canonical
// Merkle search tree standing in for Tendermint's IAVL tree. Both are
// *canonical*: the root hash is a pure function of the key-value contents,
// independent of the order of insertions and deletions. Move2 depends on
// this property for its completeness check — the target chain rebuilds the
// contract's storage tree from the proof payload and compares roots, which
// detects any omitted or injected storage entry (§III-E).
package trie

import (
	"bytes"
	"errors"
	"fmt"

	"scmove/internal/hashing"
)

// Kind identifies a state-tree implementation. Chains advertise their kind
// so that peers know how to verify proofs against their state roots.
type Kind uint8

// Supported tree kinds.
const (
	// KindMPT is the hex-nibble Merkle Patricia trie (Ethereum-like chains).
	KindMPT Kind = iota + 1
	// KindIAVL is the canonical Merkle search tree (Burrow-like chains).
	KindIAVL
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMPT:
		return "mpt"
	case KindIAVL:
		return "iavl"
	default:
		return "unknown"
	}
}

// Errors shared by tree implementations.
var (
	// ErrInvalidProof reports a proof that fails hash verification or is
	// structurally malformed.
	ErrInvalidProof = errors.New("trie: invalid merkle proof")
	// ErrKeyLength reports a key whose length differs from the tree's fixed
	// key length. Fixed-length keys keep both tree shapes canonical.
	ErrKeyLength = errors.New("trie: key length does not match tree key length")
	// ErrRunOrder reports a bulk-construction run whose keys are not
	// strictly ascending (out of order, or a key repeated).
	ErrRunOrder = errors.New("trie: run keys are not strictly ascending")
	// ErrEmptyValue reports a bulk-construction run carrying an empty value;
	// absent keys are simply left out of a run.
	ErrEmptyValue = errors.New("trie: empty value in run")
)

// CheckRun validates a bulk-construction run — n entries read through
// at(0) … at(n-1) — and returns the total length of its values. Every key
// must be keyLen bytes long and strictly greater than its predecessor, and
// every value non-empty. Both tree kinds build from such a run in one
// linear pass, and both rely on the order: they call CheckRun before
// anything else. at must be a pure accessor: the slices it returns stay
// valid and unchanged until the constructor returns, and are not retained.
func CheckRun(keyLen, n int, at func(i int) (key, value []byte)) (valueBytes int, err error) {
	var prev []byte
	for i := 0; i < n; i++ {
		key, value := at(i)
		if len(key) != keyLen {
			return 0, fmt.Errorf("%w: entry %d: got %d want %d", ErrKeyLength, i, len(key), keyLen)
		}
		if len(value) == 0 {
			return 0, fmt.Errorf("%w: entry %d", ErrEmptyValue, i)
		}
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			return 0, fmt.Errorf("%w: entry %d", ErrRunOrder, i)
		}
		prev = key
		valueBytes += len(value)
	}
	return valueBytes, nil
}

// Tree is an authenticated key-value store with membership proofs.
//
// All keys in one tree must have the same length (set at construction).
// Values must be non-empty; Delete removes a key entirely. Get, Set, Delete
// and Prove retain neither their key nor their value: Set stores copies, so
// a caller may pass a scratch buffer and reuse it as soon as the call
// returns.
type Tree interface {
	// Get returns the value stored under key and whether it exists.
	Get(key []byte) ([]byte, bool)
	// Set stores value under key, replacing any previous value. It returns
	// ErrKeyLength if the key has the wrong length and panics if value is
	// empty (an invariant violation: use Delete to remove keys).
	Set(key, value []byte) error
	// Delete removes key. Deleting an absent key is a no-op.
	Delete(key []byte) error
	// RootHash returns the Merkle root commitment over the full contents.
	RootHash() hashing.Hash
	// Prove returns an encoded membership proof for key, or ErrInvalidProof
	// if the key is absent.
	Prove(key []byte) ([]byte, error)
	// Iterate visits all entries in ascending key order until fn returns
	// false. The callback must not mutate the tree. key and value are valid
	// only during the callback: an implementation may reuse one key buffer
	// for the whole walk, so a caller that keeps either copies it.
	Iterate(fn func(key, value []byte) bool)
	// Len returns the number of entries.
	Len() int
}

// ProvenEntry is the result of verifying a membership proof: the key/value
// pair the proof commits to under the given root.
type ProvenEntry struct {
	Key   []byte
	Value []byte
}
