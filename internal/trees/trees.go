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
// at(0) … at(n-1), which must form a strictly ascending run (trie.CheckRun),
// and counts the nodes it builds in w (nil counts nothing). It is what n
// Sets on New's tree give — the same root, proofs and shape, both kinds
// being canonical — in one linear pass and a fixed number of allocations.
// Every rebuild from sorted contents goes through it.
func Build(w *trie.Work, kind trie.Kind, keyLen, n int, at func(i int) (key, value []byte)) (trie.Tree, error) {
	var (
		t   trie.Tree
		err error
	)
	switch kind {
	case trie.KindMPT:
		t, err = mpt.Build(w, keyLen, n, at)
	case trie.KindIAVL:
		t, err = iavl.Build(w, keyLen, n, at)
	default:
		err = fmt.Errorf("trees: unknown tree kind %d", kind)
	}
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return t, nil
}

// RootOf returns Build(nil, kind, keyLen, n, at).RootHash() without keeping a
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

// StubEntries is the largest subtree Shrink drops to a hash stub. A write
// into a stub rebuilds at most this many entries, and a shrunk tree keeps
// 4 to 9·n/StubEntries nodes of its n entries; DESIGN §17.12 has the
// measurement it was chosen by.
const StubEntries = 64

// Shrink drops every maximal subtree of t of at most StubEntries entries
// to a stub that keeps only its hash (mpt.Tree.Shrink, iavl.Tree.Shrink),
// and returns the number of nodes t keeps. From then on src serves the
// stubs' entries, and w counts the nodes a write rebuilds from it. t must
// hold exactly what src holds, and src must go on holding each stub's
// entries until a write expands it.
func Shrink(t trie.Tree, src trie.Source, w *trie.Work) int {
	switch t := t.(type) {
	case *mpt.Tree:
		return t.Shrink(StubEntries, src, w)
	case *iavl.Tree:
		return t.Shrink(StubEntries, src, w)
	default:
		panic(fmt.Sprintf("trees: cannot shrink a %T", t))
	}
}

// Stubs returns the number of stubs t holds: zero for a tree Shrink never
// reached, and for one every stub of which a write has expanded.
func Stubs(t trie.Tree) int {
	switch t := t.(type) {
	case *mpt.Tree:
		return t.Stubs()
	case *iavl.Tree:
		return t.Stubs()
	default:
		return 0
	}
}
