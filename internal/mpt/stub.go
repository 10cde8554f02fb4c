package mpt

import (
	"bytes"
	"fmt"

	"scmove/internal/trie"
)

// Hash stubs. A clean tree whose entries a trie.Source also serves — a
// contract's storage over the file store — can give back the memory of its
// lower levels: Shrink drops every maximal subtree of at most max entries
// to a stub that keeps only its hash and entry count. The nibble path from
// the root to a stub is its key range: every key the source holds with
// that prefix is one of the stub's entries, because any write there
// expands the stub first. So:
//
//   - a read that reaches a stub asks the source (Get, Iterate);
//   - a write that reaches one rebuilds it from the source — one range
//     read, a Build of at most max entries — and checks that the rebuilt
//     subtree hashes to the stub's hash before it writes;
//   - a branch that a delete leaves with one child, a stub, expands it too:
//     collapsing into a child needs the child's shape.
//
// Hashing needs no change: a stub is clean, and its parent encodes its
// cached hash as it would the subtree's.

// skeleton is what a tree keeps beside its nodes once Shrink has run:
// where the stubs' entries come from, what their rebuilds count against,
// how many stubs there are, and scratch for the reads. A tree Shrink never
// reached has none, and pays one pointer for it.
type skeleton struct {
	src    trie.Source
	work   *trie.Work
	stubs  int
	key    []byte // the key a read hands src
	bounds []byte // a stub's key range, lo then hi, for src.Range
}

// Shrink drops every maximal subtree of at most max entries (max ≥ 1) to a
// stub, and returns the number of nodes it keeps; a stub already there
// stays one. From then on src serves those entries, and the nodes a write
// rebuilds from it count against w. src must hold exactly the tree's
// entries, and go on holding them for every stub until a write expands it.
// The nodes Shrink keeps — the branches and extensions above the stubs,
// and the stubs — are copied into fresh memory, so no slab that a Build or
// an expansion allocated stays reachable through the tree.
func (t *Tree) Shrink(max int, src trie.Source, w *trie.Work) (kept int) {
	if max < 1 {
		panic("mpt: Shrink needs a positive stub size")
	}
	if t.sk == nil {
		t.sk = new(skeleton)
	}
	t.sk.src, t.sk.work = src, w
	if t.root == nil {
		t.sk.stubs = 0
		return 0
	}
	t.RootHash()
	sizeOf(t.root)
	var s shape
	countKept(t.root, max, &s)
	k := keeper{
		max:    max,
		nibs:   make([]byte, 0, s.nibs),
		nodes:  make([]node, 0, s.nodes),
		arrays: make([][16]*node, 0, s.branches),
	}
	t.root = k.copy(t.root)
	t.sk.stubs = k.stubs
	return s.nodes
}

// Stubs returns the number of stubs the tree holds.
func (t *Tree) Stubs() int {
	if t.sk == nil {
		return 0
	}
	return t.sk.stubs
}

// sizeOf returns the entries under n and records each resident node's in
// its size.
func sizeOf(n *node) uint32 {
	switch n.kind {
	case kindStub:
		return n.size
	case kindLeaf:
		n.size = 1
	case kindExt:
		n.size = sizeOf(n.child)
	default:
		n.size = 0
		for _, c := range n.children {
			if c != nil {
				n.size += sizeOf(c)
			}
		}
	}
	return n.size
}

// countKept adds to s what keeper.copy makes of n.
func countKept(n *node, max int, s *shape) {
	s.nodes++
	if n.kind == kindStub || int(n.size) <= max {
		return
	}
	switch n.kind {
	case kindExt:
		s.nibs += len(n.nibbles)
		countKept(n.child, max, s)
	case kindBranch:
		s.branches++
		for _, c := range n.children {
			if c != nil {
				countKept(c, max, s)
			}
		}
	}
}

// keeper copies the top of a sized tree into slabs sized by countKept.
type keeper struct {
	max    int
	nibs   []byte
	nodes  []node
	arrays [][16]*node
	stubs  int
}

func (k *keeper) copy(n *node) *node {
	k.nodes = k.nodes[:len(k.nodes)+1]
	c := &k.nodes[len(k.nodes)-1]
	if n.kind == kindStub || int(n.size) <= k.max {
		*c = node{kind: kindStub, clean: true, size: n.size, hash: n.hash}
		k.stubs++
		return c
	}
	*c = node{kind: n.kind, clean: true, size: n.size, hash: n.hash}
	if n.kind == kindExt {
		start := len(k.nibs)
		k.nibs = append(k.nibs, n.nibbles...)
		c.nibbles = k.nibs[start:len(k.nibs):len(k.nibs)]
		c.child = k.copy(n.child)
		return c
	}
	k.arrays = k.arrays[:len(k.arrays)+1]
	c.children = &k.arrays[len(k.arrays)-1]
	for i, child := range n.children {
		if child != nil {
			c.children[i] = k.copy(child)
		}
	}
	return c
}

// expand rebuilds the stub whose nibble path is prefix from the source and
// returns the rebuilt subtree, hashed. It panics, naming the source and
// the key range, when the rebuilt subtree does not hash to the stub's hash:
// the source no longer holds what the tree committed to.
func (t *Tree) expand(stub *node, prefix []byte) *node {
	lo, hi := t.stubRange(prefix)
	r := trie.NewRun(t.keyLen)
	t.sk.src.Range(lo, hi, func(k, v []byte) bool {
		r.Add(k, v)
		return true
	})
	var n *node
	if valueBytes, err := trie.CheckRun(t.keyLen, r.Len(), r.At); err == nil && r.Len() > 0 {
		n = buildAt(t.sk.work, t.keyLen, r.Len(), valueBytes, len(prefix), r.At)
		n.hashNode()
	}
	if n == nil || n.hash != stub.hash {
		panic(fmt.Sprintf("mpt: the %d entries of %s in [%x, %x] do not rebuild the stub's hash %s",
			r.Len(), t.sk.src, lo, hi, stub.hash))
	}
	t.sk.stubs--
	return n
}

// stubRange returns the lowest and highest key with the nibble path prefix,
// in the tree's scratch: valid until the next call.
func (t *Tree) stubRange(prefix []byte) (lo, hi []byte) {
	if len(t.sk.bounds) != 2*t.keyLen {
		t.sk.bounds = make([]byte, 2*t.keyLen)
	}
	lo, hi = t.sk.bounds[:t.keyLen], t.sk.bounds[t.keyLen:]
	for i := range lo {
		l, h := byte(0x00), byte(0xff)
		if p := 2 * i; p < len(prefix) {
			l, h = prefix[p]<<4, prefix[p]<<4|0x0f
		}
		if p := 2*i + 1; p < len(prefix) {
			l, h = l&0xf0|prefix[p], h&0xf0|prefix[p]
		}
		lo[i], hi[i] = l, h
	}
	return lo, hi
}

// openPath expands every stub on the path of the key whose nibbles are
// nibs, so that Prove can encode it.
func (t *Tree) openPath(nibs []byte) {
	slot, rest := &t.root, nibs
	for *slot != nil {
		n := *slot
		if n.kind == kindStub {
			n = t.expand(n, nibs[:len(nibs)-len(rest)])
			*slot = n
		}
		switch n.kind {
		case kindLeaf:
			return
		case kindExt:
			if !bytes.HasPrefix(rest, n.nibbles) {
				return
			}
			slot, rest = &n.child, rest[len(n.nibbles):]
		default:
			if len(rest) == 0 {
				return
			}
			slot, rest = &n.children[rest[0]], rest[1:]
		}
	}
}
