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
	"sync/atomic"

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

// Source serves the entries a tree's hash stubs stand for. A tree whose
// store holds every committed entry elsewhere — a contract's sorted run in
// the file store — can drop a clean subtree down to a stub that keeps only
// its cached hash (see the trees' Shrink): its entries are read back from
// the Source when a read reaches it, and rebuilt from it when a write
// does. Get's value, and Range's key and value, are valid only until the
// next call into the Source.
type Source interface {
	// Get returns the value stored under key.
	Get(key []byte) ([]byte, bool)
	// Range calls fn for every entry whose key lies in [lo, hi], in
	// ascending key order, until fn returns false.
	Range(lo, hi []byte, fn func(key, value []byte) bool)
	// String names the source in the panic of a stub whose rebuilt
	// entries do not hash to the stub's hash.
	String() string
}

// Work counts the tree nodes one chain builds: bulk builds, the stubs a
// write expands, and a Move2's preparation. It is a count of work done, a
// pure function of what the chain executes, so two runs of one simulation
// read the same count. The zero value is ready; a nil *Work counts
// nothing. It is safe for concurrent use: a preparation builds on a
// goroutine of its own.
type Work struct{ nodes atomic.Uint64 }

// Built adds n nodes built.
func (w *Work) Built(n int) {
	if w != nil {
		w.nodes.Add(uint64(n))
	}
}

// Nodes returns the nodes built so far.
func (w *Work) Nodes() uint64 {
	if w == nil {
		return 0
	}
	return w.nodes.Load()
}

// Run collects entries read from a Source for a rebuild: one byte slab
// holds every key and value, so collecting allocates once per growth, not
// once per entry. Its At is the accessor a bulk build reads.
type Run struct {
	keyLen int
	data   []byte
	ends   []int // entry i's value ends at ends[i]
}

// NewRun returns an empty run of keyLen-byte keys.
func NewRun(keyLen int) *Run { return &Run{keyLen: keyLen} }

// Add appends one entry; key must be keyLen bytes long.
func (r *Run) Add(key, value []byte) {
	r.data = append(append(r.data, key...), value...)
	r.ends = append(r.ends, len(r.data))
}

// Len returns the number of entries.
func (r *Run) Len() int { return len(r.ends) }

// At returns the i-th entry.
func (r *Run) At(i int) (key, value []byte) {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.data[start : start+r.keyLen], r.data[start+r.keyLen : r.ends[i]]
}
