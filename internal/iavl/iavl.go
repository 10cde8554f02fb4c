// Package iavl implements the authenticated search tree of the
// Burrow/Tendermint-like chain.
//
// Tendermint's IAVL tree is a Merkle-ized AVL tree whose shape depends on
// the order of operations. The Move protocol's completeness check (rebuild
// the moved contract's storage tree and compare roots, §III-E) needs a
// *canonical* structure instead, so this package implements a Merkle-ized
// treap with deterministic priorities (priority = H(key)): the tree shape —
// and therefore the root hash — is a pure function of the key-value set,
// with the same expected O(log n) costs as the AVL original. See DESIGN.md,
// substitutions.
package iavl

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"scmove/internal/hashing"
	"scmove/internal/trie"
)

const (
	tagNode = 0x4e // 'N', node hash domain
	tagPrio = 0x50 // 'P', priority derivation domain
)

// A stub (stub.go) stands for a clean subtree that Shrink dropped: it keeps
// the subtree's hash and entry count, and in key and value its lowest and
// highest key; the tree's source serves its entries.
type node struct {
	key, value  []byte
	prio        hashing.Hash
	left, right *node

	// hash caches the node hash while the subtree is clean, so unchanged
	// subtrees are not re-hashed by RootHash or Prove.
	hash  hashing.Hash
	clean bool
	stub  bool
	// size is a stub's entry count; on a resident node it is Shrink's
	// scratch, stale outside it.
	size uint32
}

// Tree is a canonical Merkle search tree. Construct with New.
type Tree struct {
	root   *node
	keyLen int
	count  int
	sk     *skeleton // set by Shrink (stub.go)
}

var _ trie.Tree = (*Tree)(nil)

// New returns an empty tree whose keys are keyLen bytes long.
func New(keyLen int) *Tree {
	if keyLen <= 0 {
		panic("iavl: key length must be positive")
	}
	return &Tree{keyLen: keyLen}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.count }

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	n := t.root
	for n != nil {
		if n.stub {
			return t.stubGet(n, key)
		}
		switch bytes.Compare(key, n.key) {
		case 0:
			return n.value, true
		case -1:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil, false
}

// Set stores value under key.
func (t *Tree) Set(key, value []byte) error {
	if len(key) != t.keyLen {
		return fmt.Errorf("%w: got %d want %d", trie.ErrKeyLength, len(key), t.keyLen)
	}
	if len(value) == 0 {
		panic("iavl: empty value; use Delete to remove keys")
	}
	k := make([]byte, len(key))
	copy(k, key)
	v := make([]byte, len(value))
	copy(v, value)
	var added bool
	t.root, added = t.insert(t.root, k, v)
	if added {
		t.count++
	}
	return nil
}

// Delete removes key. Deleting an absent key is a no-op.
func (t *Tree) Delete(key []byte) error {
	if len(key) != t.keyLen {
		return fmt.Errorf("%w: got %d want %d", trie.ErrKeyLength, len(key), t.keyLen)
	}
	var removed bool
	t.root, removed = t.remove(t.root, key)
	if removed {
		t.count--
	}
	return nil
}

// RootHash returns the Merkle root; the empty tree hashes to the zero hash.
func (t *Tree) RootHash() hashing.Hash {
	if t.root == nil {
		return hashing.ZeroHash
	}
	return t.root.hashNode()
}

// Iterate visits entries in ascending key order.
func (t *Tree) Iterate(fn func(key, value []byte) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		if n.stub {
			more := true
			t.sk.src.Range(n.key, n.value, func(k, v []byte) bool {
				more = fn(k, v)
				return more
			})
			return more
		}
		return walk(n.left) && fn(n.key, n.value) && walk(n.right)
	}
	walk(t.root)
}

// priority is SumTagged(tagPrio, key). Keys up to a storage word, the
// longest a state tree has, are tagged in a stack buffer: a bulk build draws
// one priority per entry and should not depend on a pooled hasher for it.
func priority(key []byte) hashing.Hash {
	var buf [1 + 32]byte
	if len(key) >= len(buf) {
		return hashing.SumTagged(tagPrio, key)
	}
	buf[0] = tagPrio
	return hashing.Sum(buf[:1+copy(buf[1:], key)])
}

// higher reports whether priority a wins over b (max-treap ordering).
func higher(a, b hashing.Hash) bool { return bytes.Compare(a[:], b[:]) > 0 }

// insert returns the updated subtree and whether key is new. A stub on the
// search path is expanded first.
func (t *Tree) insert(n *node, key, value []byte) (*node, bool) {
	if n == nil {
		return &node{key: key, value: value, prio: priority(key)}, true
	}
	if n.stub {
		n = t.expand(n)
	}
	n.clean = false
	switch bytes.Compare(key, n.key) {
	case 0:
		n.value = value
		return n, false
	case -1:
		child, added := t.insert(n.left, key, value)
		n.left = child
		if higher(n.left.prio, n.prio) {
			n = rotateRight(n)
		}
		return n, added
	default:
		child, added := t.insert(n.right, key, value)
		n.right = child
		if higher(n.right.prio, n.prio) {
			n = rotateLeft(n)
		}
		return n, added
	}
}

// remove returns the updated subtree and whether key was removed. A stub
// that holds key is expanded first.
func (t *Tree) remove(n *node, key []byte) (*node, bool) {
	if n == nil {
		return nil, false
	}
	if n.stub {
		if _, ok := t.stubGet(n, key); !ok {
			return n, false
		}
		n = t.expand(n)
	}
	switch bytes.Compare(key, n.key) {
	case -1:
		child, removed := t.remove(n.left, key)
		if removed {
			n.clean = false
			n.left = child
		}
		return n, removed
	case 1:
		child, removed := t.remove(n.right, key)
		if removed {
			n.clean = false
			n.right = child
		}
		return n, removed
	default:
		// Rotate the node down until it is a leaf, preserving heap order.
		return t.dissolve(n), true
	}
}

// dissolve removes n from its subtree by rotating the higher-priority child
// up until n has at most one child, then splicing it out. A stub child is
// expanded before a rotation, which needs its priority and shape; one that
// takes n's place whole keeps its range and stays a stub.
func (t *Tree) dissolve(n *node) *node {
	switch {
	case n.left == nil:
		return n.right
	case n.right == nil:
		return n.left
	}
	if n.left.stub {
		n.left = t.expand(n.left)
	}
	if n.right.stub {
		n.right = t.expand(n.right)
	}
	if higher(n.left.prio, n.right.prio) {
		r := rotateRight(n)
		r.clean = false
		r.right = t.dissolve(r.right)
		return r
	}
	r := rotateLeft(n)
	r.clean = false
	r.left = t.dissolve(r.left)
	return r
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.clean = false
	l.clean = false
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.clean = false
	r.clean = false
	return r
}

// encScratch sizes the stack buffer a node is encoded into for hashing and
// proving: tag, two length prefixes, a 32-byte key, a 32-byte value and two
// child hashes need 131 bytes, an account record somewhat more. A longer
// encoding spills to the heap through append; nothing depends on the size.
const encScratch = 256

// appendNode appends the canonical node encoding to b, byte-identical to
// the codec.Writer format proofs decode: uvarint tag, length-prefixed key
// and value, raw child hashes (zero for an absent child).
func appendNode(b, key, value []byte, left, right hashing.Hash) []byte {
	b = binary.AppendUvarint(b, tagNode)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(len(value)))
	b = append(b, value...)
	b = append(b, left[:]...)
	return append(b, right[:]...)
}

// appendEncode appends n's canonical encoding to b. Encodings are not
// cached: a clean node keeps only its hash, and Prove re-encodes the few
// nodes on its path. n's children must be clean. It does not recurse, which
// is what lets callers hand it a stack buffer.
func (n *node) appendEncode(b []byte) []byte {
	var left, right hashing.Hash
	if n.left != nil {
		left = n.left.hash
	}
	if n.right != nil {
		right = n.right.hash
	}
	return appendNode(b, n.key, n.value, left, right)
}

func (n *node) hashNode() hashing.Hash {
	if n.clean {
		return n.hash
	}
	if n.left != nil {
		n.left.hashNode()
	}
	if n.right != nil {
		n.right.hashNode()
	}
	var buf [encScratch]byte
	n.hash = hashing.Sum(n.appendEncode(buf[:0]))
	n.clean = true
	return n.hash
}
