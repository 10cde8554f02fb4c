// Package trees constructs and verifies the concrete state-tree
// implementations by kind. It exists so that packages which need "a tree of
// the chain's configured kind" (state, core) do not depend on the individual
// implementations.
package trees

import (
	"fmt"

	"scmove/internal/hashing"
	"scmove/internal/iavl"
	"scmove/internal/mpt"
	"scmove/internal/trie"
)

// New returns an empty tree of the given kind with fixed keyLen-byte keys.
func New(kind trie.Kind, keyLen int) (trie.Tree, error) {
	switch kind {
	case trie.KindMPT:
		return mpt.New(keyLen), nil
	case trie.KindIAVL:
		return iavl.New(keyLen), nil
	default:
		return nil, fmt.Errorf("trees: unknown tree kind %d", kind)
	}
}

// MustNew is New for statically-known kinds; it panics on unknown kinds.
func MustNew(kind trie.Kind, keyLen int) trie.Tree {
	t, err := New(kind, keyLen)
	if err != nil {
		panic(err)
	}
	return t
}

// Build returns a tree of the given kind holding exactly the n entries
// at(0) … at(n-1), which must form a strictly ascending run (trie.CheckRun).
// It is what n Sets on New's tree give — the same root, proofs and shape,
// both kinds being canonical — in one linear pass and a fixed number of
// allocations. Every rebuild from sorted contents goes through it.
func Build(kind trie.Kind, keyLen, n int, at func(i int) (key, value []byte)) (trie.Tree, error) {
	var (
		t   trie.Tree
		err error
	)
	switch kind {
	case trie.KindMPT:
		t, err = mpt.Build(keyLen, n, at)
	case trie.KindIAVL:
		t, err = iavl.Build(keyLen, n, at)
	default:
		err = fmt.Errorf("trees: unknown tree kind %d", kind)
	}
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return t, nil
}

// RootOf returns Build(kind, keyLen, n, at).RootHash() without keeping a
// tree: the run is hashed as it is read and no node is materialised.
func RootOf(kind trie.Kind, keyLen, n int, at func(i int) (key, value []byte)) (hashing.Hash, error) {
	switch kind {
	case trie.KindMPT:
		return mpt.RootOf(keyLen, n, at)
	case trie.KindIAVL:
		return iavl.RootOf(keyLen, n, at)
	default:
		return hashing.Hash{}, fmt.Errorf("trees: unknown tree kind %d", kind)
	}
}

// VerifyProof verifies an encoded membership proof produced by a tree of the
// given kind against root, returning the proven entry.
func VerifyProof(kind trie.Kind, root hashing.Hash, proof []byte) (trie.ProvenEntry, error) {
	switch kind {
	case trie.KindMPT:
		return mpt.VerifyProof(root, proof)
	case trie.KindIAVL:
		return iavl.VerifyProof(root, proof)
	default:
		return trie.ProvenEntry{}, fmt.Errorf("trees: unknown tree kind %d", kind)
	}
}
