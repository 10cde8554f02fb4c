// Package mpt implements a hex-nibble Merkle Patricia trie with membership
// proofs, the state tree of the Ethereum-like chain in this reproduction.
//
// The trie is canonical: its root hash is a pure function of the key-value
// contents. Deletion fully collapses extension/branch chains so that a tree
// that had entries added and removed hashes identically to a tree built
// fresh from the surviving entries — the property Move2's completeness check
// relies on (paper §III-E).
//
// All keys in one trie share a fixed length, which removes the
// key-is-prefix-of-another case (branches never carry values). Account
// tries use 20-byte address keys and storage tries 32-byte word keys.
package mpt

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"scmove/internal/hashing"
	"scmove/internal/trie"
)

// Node encoding tags (also domain-separate the hash inputs).
const (
	tagLeaf   = 0x4c // 'L'
	tagExt    = 0x45 // 'E'
	tagBranch = 0x42 // 'B'
)

type nodeKind uint8

const (
	kindLeaf nodeKind = iota + 1
	kindExt
	kindBranch
	// kindStub stands for a clean subtree that Shrink dropped: it keeps the
	// subtree's hash and entry count, and the tree's source serves the
	// entries (stub.go).
	kindStub
)

// node is one trie node of any kind. Only a branch carries the 16-slot
// child array, behind a pointer: leaves outnumber branches, and held inline
// the array would add 128 B to every node. clean and size sit beside kind to
// share its word.
type node struct {
	kind  nodeKind
	clean bool
	// size is a stub's entry count; on any other node it is Shrink's
	// scratch, stale outside it.
	size     uint32
	nibbles  []byte     // leaf: remaining key path; ext: shared path
	value    []byte     // leaf only
	child    *node      // ext only
	children *[16]*node // branch only

	// hash caches the node hash while the subtree is clean, so unchanged
	// subtrees are not re-hashed by RootHash or Prove.
	hash hashing.Hash
}

// newBranch returns an empty branch with its own child array.
func newBranch() *node {
	return &node{kind: kindBranch, children: new([16]*node)}
}

// Tree is a Merkle Patricia trie. Construct with New; the zero value is not
// usable because the key length must be fixed up front.
//
// A Tree is not safe for concurrent use: lookups share a scratch nibble
// buffer so that reads on a committed tree are allocation-free.
type Tree struct {
	root       *node
	keyLen     int
	count      int
	nibScratch []byte    // reusable key-nibble buffer for Get/Set/Delete/Prove
	sk         *skeleton // set by Shrink (stub.go)
}

var _ trie.Tree = (*Tree)(nil)

// New returns an empty trie whose keys are keyLen bytes long.
func New(keyLen int) *Tree {
	if keyLen <= 0 {
		panic("mpt: key length must be positive")
	}
	return &Tree{keyLen: keyLen}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.count }

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	if len(key) != t.keyLen {
		return nil, false
	}
	n := t.root
	nibs := t.keyNibbles(key)
	for n != nil {
		switch n.kind {
		case kindLeaf:
			if bytes.Equal(n.nibbles, nibs) {
				return n.value, true
			}
			return nil, false
		case kindExt:
			if !bytes.HasPrefix(nibs, n.nibbles) {
				return nil, false
			}
			nibs = nibs[len(n.nibbles):]
			n = n.child
		case kindBranch:
			if len(nibs) == 0 {
				return nil, false
			}
			n, nibs = n.children[nibs[0]], nibs[1:]
		case kindStub:
			t.sk.key = append(t.sk.key[:0], key...)
			return t.sk.src.Get(t.sk.key)
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
		panic("mpt: empty value; use Delete to remove keys")
	}
	val := make([]byte, len(value))
	copy(val, value)
	var added bool
	// keyNibbles is a scratch buffer: insert copies any path it retains.
	t.root, added = t.insert(t.root, t.keyNibbles(key), val)
	if added {
		t.count++
	}
	return nil
}

// Delete removes key from the trie.
func (t *Tree) Delete(key []byte) error {
	if len(key) != t.keyLen {
		return fmt.Errorf("%w: got %d want %d", trie.ErrKeyLength, len(key), t.keyLen)
	}
	if t.Stubs() > 0 {
		t.sk.key = append(t.sk.key[:0], key...)
	}
	var removed bool
	t.root, removed = t.remove(t.root, t.keyNibbles(key))
	if removed {
		t.count--
	}
	return nil
}

// RootHash returns the Merkle root. The empty trie hashes to the zero hash.
func (t *Tree) RootHash() hashing.Hash {
	if t.root == nil {
		return hashing.ZeroHash
	}
	return t.root.hashNode()
}

// Iterate visits entries in ascending key order. One key buffer serves the
// whole walk: key is valid only during the callback, and value must not be
// modified (trie.Tree.Iterate).
func (t *Tree) Iterate(fn func(key, value []byte) bool) {
	key := make([]byte, t.keyLen)
	var walk func(n *node, prefix []byte) bool
	walk = func(n *node, prefix []byte) bool {
		if n == nil {
			return true
		}
		switch n.kind {
		case kindLeaf:
			packNibbles(key, append(prefix, n.nibbles...))
			return fn(key, n.value)
		case kindExt:
			return walk(n.child, append(prefix, n.nibbles...))
		case kindStub:
			lo, hi := t.stubRange(prefix)
			more := true
			t.sk.src.Range(lo, hi, func(k, v []byte) bool {
				more = fn(k, v)
				return more
			})
			return more
		default: // branch
			for i := 0; i < 16; i++ {
				if n.children[i] == nil {
					continue
				}
				if !walk(n.children[i], append(prefix, byte(i))) {
					return false
				}
			}
			return true
		}
	}
	walk(t.root, make([]byte, 0, t.keyLen*2))
}

// insert returns the updated subtree and whether a new key was added (as
// opposed to replacing an existing value). nibs is the tail of the key's
// nibbles in the tree's scratch buffer, so any retained path is copied
// (cloneNibs). A stub on the path is expanded first.
func (t *Tree) insert(n *node, nibs, value []byte) (*node, bool) {
	if n == nil {
		return &node{kind: kindLeaf, nibbles: cloneNibs(nibs), value: value}, true
	}
	if n.kind == kindStub {
		n = t.expand(n, t.nibScratch[:len(t.nibScratch)-len(nibs)])
	}
	n.clean = false
	switch n.kind {
	case kindLeaf:
		if bytes.Equal(n.nibbles, nibs) {
			n.value = value
			return n, false
		}
		p := commonPrefix(n.nibbles, nibs)
		branch := newBranch()
		// Fixed-length keys guarantee divergence before either path is
		// exhausted, so both remainders are non-empty.
		old := &node{kind: kindLeaf, nibbles: n.nibbles[p+1:], value: n.value}
		branch.children[n.nibbles[p]] = old
		branch.children[nibs[p]] = &node{kind: kindLeaf, nibbles: cloneNibs(nibs[p+1:]), value: value}
		return wrapExt(nibs[:p], branch), true
	case kindExt:
		p := commonPrefix(n.nibbles, nibs)
		if p == len(n.nibbles) {
			child, added := t.insert(n.child, nibs[p:], value)
			n.child = child
			return n, added
		}
		// Split the extension at the divergence point.
		branch := newBranch()
		branch.children[n.nibbles[p]] = wrapExt(n.nibbles[p+1:], n.child)
		branch.children[nibs[p]] = &node{kind: kindLeaf, nibbles: cloneNibs(nibs[p+1:]), value: value}
		return wrapExt(nibs[:p], branch), true
	default: // branch
		idx := nibs[0]
		child, added := t.insert(n.children[idx], nibs[1:], value)
		n.children[idx] = child
		return n, added
	}
}

// remove returns the updated (canonicalized) subtree and whether a key was
// actually removed. A stub that holds the key is expanded first, and so is
// one left the only child of a branch: the branch collapses into it, which
// needs its shape.
func (t *Tree) remove(n *node, nibs []byte) (*node, bool) {
	if n == nil {
		return nil, false
	}
	if n.kind == kindStub {
		if _, ok := t.sk.src.Get(t.sk.key); !ok {
			return n, false
		}
		n = t.expand(n, t.nibScratch[:len(t.nibScratch)-len(nibs)])
	}
	switch n.kind {
	case kindLeaf:
		if bytes.Equal(n.nibbles, nibs) {
			return nil, true
		}
		return n, false
	case kindExt:
		if !bytes.HasPrefix(nibs, n.nibbles) {
			return n, false
		}
		child, removed := t.remove(n.child, nibs[len(n.nibbles):])
		if !removed {
			return n, false
		}
		n.clean = false
		if child == nil {
			return nil, true
		}
		return mergeExt(n.nibbles, child), true
	default: // branch
		idx := nibs[0]
		child, removed := t.remove(n.children[idx], nibs[1:])
		if !removed {
			return n, false
		}
		n.clean = false
		n.children[idx] = child
		// Count the surviving children; collapse if only one remains.
		last := -1
		cnt := 0
		for i := 0; i < 16; i++ {
			if n.children[i] != nil {
				last = i
				cnt++
			}
		}
		if cnt >= 2 {
			return n, true
		}
		// cnt == 1: the branch is redundant; splice the nibble into the
		// surviving child. (cnt == 0 cannot happen: a branch always has at
		// least two children by construction.)
		only := n.children[last]
		if only.kind == kindStub {
			depth := len(t.nibScratch) - len(nibs) // the branch's
			prefix := make([]byte, depth+1)
			copy(prefix, t.nibScratch[:depth])
			prefix[depth] = byte(last)
			only = t.expand(only, prefix)
		}
		return mergeExt([]byte{byte(last)}, only), true
	}
}

// wrapExt wraps child in an extension node with the given path, avoiding
// empty extensions and merging nested extensions/leaves.
func wrapExt(nibs []byte, child *node) *node {
	if len(nibs) == 0 {
		return child
	}
	return mergeExt(nibs, child)
}

// mergeExt prepends nibs to child, fusing with leaf or extension children to
// maintain canonical form.
func mergeExt(nibs []byte, child *node) *node {
	switch child.kind {
	case kindLeaf:
		return &node{kind: kindLeaf, nibbles: concatNibs(nibs, child.nibbles), value: child.value}
	case kindExt:
		return &node{kind: kindExt, nibbles: concatNibs(nibs, child.nibbles), child: child.child}
	default:
		return &node{kind: kindExt, nibbles: concatNibs(nibs, nil), child: child}
	}
}

func concatNibs(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func cloneNibs(nibs []byte) []byte {
	out := make([]byte, len(nibs))
	copy(out, nibs)
	return out
}

func commonPrefix(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// encScratch sizes the stack buffer a node is encoded into for hashing and
// proving. A branch, the largest fixed-size node, takes 1 + 16·32 = 513
// bytes; a leaf holding an account record stays well below that. A longer
// encoding spills to the heap through append; nothing depends on the size.
const encScratch = 544

// appendLeaf, appendExt and appendBranch append the canonical byte encoding
// of a node to b. The format is byte-identical to the codec.Writer encoding
// proofs decode: uvarint tag, length-prefixed byte strings, raw 32-byte
// hashes (zero for an absent branch child).
func appendLeaf(b, nibbles, value []byte) []byte {
	b = binary.AppendUvarint(b, tagLeaf)
	b = binary.AppendUvarint(b, uint64(len(nibbles)))
	b = append(b, nibbles...)
	b = binary.AppendUvarint(b, uint64(len(value)))
	return append(b, value...)
}

func appendExt(b, nibbles []byte, child hashing.Hash) []byte {
	b = binary.AppendUvarint(b, tagExt)
	b = binary.AppendUvarint(b, uint64(len(nibbles)))
	b = append(b, nibbles...)
	return append(b, child[:]...)
}

func appendBranch(b []byte, children *[16]hashing.Hash) []byte {
	b = binary.AppendUvarint(b, tagBranch)
	for i := range children {
		b = append(b, children[i][:]...)
	}
	return b
}

// appendEncode appends n's canonical encoding to b. Encodings are not
// cached: a clean node keeps only its hash, and Prove re-encodes the few
// nodes on its path. n's children must be clean. It does not recurse, which
// is what lets callers hand it a stack buffer.
func (n *node) appendEncode(b []byte) []byte {
	switch n.kind {
	case kindLeaf:
		return appendLeaf(b, n.nibbles, n.value)
	case kindExt:
		return appendExt(b, n.nibbles, n.child.hash)
	default:
		var children [16]hashing.Hash
		for i, c := range n.children {
			if c != nil {
				children[i] = c.hash
			}
		}
		return appendBranch(b, &children)
	}
}

func (n *node) hashNode() hashing.Hash {
	if n.clean {
		return n.hash
	}
	switch n.kind {
	case kindExt:
		n.child.hashNode()
	case kindBranch:
		for _, c := range n.children {
			if c != nil {
				c.hashNode()
			}
		}
	}
	var buf [encScratch]byte
	n.hash = hashing.Sum(n.appendEncode(buf[:0]))
	n.clean = true
	return n.hash
}

// keyNibbles expands key into the tree's scratch nibble buffer. The result
// is valid until the next keyNibbles call; retained paths must be copied.
func (t *Tree) keyNibbles(key []byte) []byte {
	need := len(key) * 2
	if cap(t.nibScratch) < need {
		t.nibScratch = make([]byte, need)
	}
	nibs := t.nibScratch[:need]
	expandNibbles(nibs, key)
	return nibs
}

// expandNibbles writes the two hex nibbles of each key byte, high first,
// into dst, which must hold 2·len(key) bytes.
func expandNibbles(dst, key []byte) {
	for i, b := range key {
		dst[i*2] = b >> 4
		dst[i*2+1] = b & 0x0f
	}
}

// nibblesToBytes packs nibbles back into bytes; the count must be even.
func nibblesToBytes(nibs []byte) []byte {
	out := make([]byte, len(nibs)/2)
	packNibbles(out, nibs)
	return out
}

// packNibbles packs nibbles, two to a byte, into dst, which must hold
// len(nibs)/2 bytes.
func packNibbles(dst, nibs []byte) {
	for i := range dst {
		dst[i] = nibs[i*2]<<4 | nibs[i*2+1]
	}
}
