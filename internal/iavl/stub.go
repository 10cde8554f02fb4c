package iavl

import (
	"bytes"
	"fmt"

	"scmove/internal/trie"
)

// Hash stubs. A clean tree whose entries a trie.Source also serves — a
// contract's storage over the file store — can give back the memory of its
// lower levels: Shrink drops every maximal subtree of at most max entries
// to a stub that keeps its hash, its entry count and its lowest and highest
// key. Every key the source holds in that range is one of the stub's
// entries, because any write there expands the stub first. So:
//
//   - a read that reaches a stub asks the source (Get, Iterate);
//   - a write that reaches one rebuilds it from the source — one range
//     read, a Build of at most max entries — and checks that the rebuilt
//     subtree hashes to the stub's hash before it writes;
//   - a delete that rotates a stub expands it too: a rotation needs the
//     stub's priority and shape.
//
// The range is the stub's own, not the one its ancestors bound: a key a
// delete removes from the tree stays in the source until the commit, and
// may then lie between a stub and its new neighbours.

// skeleton is what a tree keeps beside its nodes once Shrink has run:
// where the stubs' entries come from, what their rebuilds count against,
// how many stubs there are, and scratch for the reads. A tree Shrink never
// reached has none, and pays one pointer for it.
type skeleton struct {
	src   trie.Source
	work  *trie.Work
	stubs int
	key   []byte // the key a read hands src
}

// Shrink drops every maximal subtree of at most max entries (max ≥ 1) to a
// stub, and returns the number of nodes it keeps; a stub already there
// stays one. From then on src serves those entries, and the nodes a write
// rebuilds from it count against w. src must hold exactly the tree's
// entries, and go on holding them for every stub until a write expands it.
// The nodes Shrink keeps — the nodes above the stubs, and the stubs — are
// copied into fresh memory, so no slab that a Build or an expansion
// allocated stays reachable through the tree.
func (t *Tree) Shrink(max int, src trie.Source, w *trie.Work) (kept int) {
	if max < 1 {
		panic("iavl: Shrink needs a positive stub size")
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
	nodes, data := countKept(t.root, max)
	k := keeper{max: max, nodes: make([]node, 0, nodes), data: make([]byte, 0, data)}
	t.root = k.copy(t.root)
	t.sk.stubs = k.stubs
	return nodes
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
	if n == nil {
		return 0
	}
	if !n.stub {
		n.size = 1 + sizeOf(n.left) + sizeOf(n.right)
	}
	return n.size
}

// countKept returns the nodes keeper.copy makes of n and the key and value
// bytes they hold.
func countKept(n *node, max int) (nodes, data int) {
	if n == nil {
		return 0, 0
	}
	if n.stub || int(n.size) <= max {
		return 1, len(lowest(n)) + len(highest(n))
	}
	ln, ld := countKept(n.left, max)
	rn, rd := countKept(n.right, max)
	return 1 + ln + rn, len(n.key) + len(n.value) + ld + rd
}

// lowest and highest return the smallest and the largest key under n.
func lowest(n *node) []byte {
	for !n.stub && n.left != nil {
		n = n.left
	}
	return n.key
}

func highest(n *node) []byte {
	for !n.stub && n.right != nil {
		n = n.right
	}
	if n.stub {
		return n.value
	}
	return n.key
}

// keeper copies the top of a sized tree into slabs sized by countKept.
type keeper struct {
	max   int
	nodes []node
	data  []byte
	stubs int
}

func (k *keeper) bytes(b []byte) []byte {
	start := len(k.data)
	k.data = append(k.data, b...)
	return k.data[start:len(k.data):len(k.data)]
}

func (k *keeper) copy(n *node) *node {
	if n == nil {
		return nil
	}
	k.nodes = k.nodes[:len(k.nodes)+1]
	c := &k.nodes[len(k.nodes)-1]
	if n.stub || int(n.size) <= k.max {
		*c = node{key: k.bytes(lowest(n)), value: k.bytes(highest(n)), hash: n.hash, clean: true, stub: true, size: n.size}
		k.stubs++
		return c
	}
	*c = node{key: k.bytes(n.key), value: k.bytes(n.value), prio: n.prio, hash: n.hash, clean: true}
	c.left, c.right = k.copy(n.left), k.copy(n.right)
	return c
}

// stubGet is Get for a key whose search reached stub.
func (t *Tree) stubGet(stub *node, key []byte) ([]byte, bool) {
	if bytes.Compare(key, stub.key) < 0 || bytes.Compare(key, stub.value) > 0 {
		return nil, false
	}
	t.sk.key = append(t.sk.key[:0], key...)
	return t.sk.src.Get(t.sk.key)
}

// expand rebuilds stub from the source and returns the rebuilt subtree,
// hashed. It panics, naming the source and the key range, when the
// rebuilt subtree does not hash to the stub's hash: the source no longer
// holds what the tree committed to.
func (t *Tree) expand(stub *node) *node {
	r := trie.NewRun(t.keyLen)
	t.sk.src.Range(stub.key, stub.value, func(k, v []byte) bool {
		r.Add(k, v)
		return true
	})
	var n *node
	if valueBytes, err := trie.CheckRun(t.keyLen, r.Len(), r.At); err == nil && r.Len() > 0 {
		n = buildRun(t.sk.work, t.keyLen, r.Len(), valueBytes, r.At)
		n.hashNode()
	}
	if n == nil || n.hash != stub.hash {
		panic(fmt.Sprintf("iavl: the %d entries of %s in [%x, %x] do not rebuild the stub's hash %s",
			r.Len(), t.sk.src, stub.key, stub.value, stub.hash))
	}
	t.sk.stubs--
	return n
}

// openPath expands every stub on key's search path, so that Prove can
// encode it.
func (t *Tree) openPath(key []byte) {
	for slot := &t.root; *slot != nil; {
		n := *slot
		if n.stub {
			n = t.expand(n)
			*slot = n
		}
		switch bytes.Compare(key, n.key) {
		case 0:
			return
		case -1:
			slot = &n.left
		default:
			slot = &n.right
		}
	}
}
