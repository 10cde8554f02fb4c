package iavl

import (
	"scmove/internal/hashing"
	"scmove/internal/trie"
)

// Bulk construction from a strictly ascending run (trie.CheckRun).
//
// The treap is the Cartesian tree of its entries: search order on the key,
// heap order on the priority H(key). Reading the keys in ascending order,
// each new entry is the rightmost node of the tree so far, so only the right
// spine — root, its right child, and so on down — can change: the entry
// climbs past every spine node of lower priority, adopts the last one passed
// (with everything below it) as its left subtree, and hangs as the right
// child of the first spine node that outranks it. Every node is pushed and
// popped once, so the pass is linear, needs no rotation, and lands on the
// one shape heap order allows — the shape any sequence of Sets reaches.

// spineDepth is the right-spine length held on the stack; a spine is as long
// as the run of priority records read right to left, ln n on average, and a
// longer one spills to the heap through append.
const spineDepth = 64

// Build returns the tree holding exactly the n entries at(0) … at(n-1),
// which must form a strictly ascending run, and counts its nodes in w.
// Nodes come from one slab and key and value bytes from another, whatever
// n is; the result is an ordinary tree, not yet hashed.
func Build(w *trie.Work, keyLen, n int, at func(i int) (key, value []byte)) (*Tree, error) {
	t := New(keyLen)
	valueBytes, err := trie.CheckRun(keyLen, n, at)
	if err != nil {
		return nil, err
	}
	t.root, t.count = buildRun(w, keyLen, n, valueBytes, at), n
	return t, nil
}

// buildRun returns the root of the treap of a checked run of n entries, nil
// for none, and counts its nodes in w.
func buildRun(w *trie.Work, keyLen, n, valueBytes int, at func(i int) (key, value []byte)) *node {
	w.Built(n)
	nodes := make([]node, n)
	data := make([]byte, 0, n*keyLen+valueBytes)
	var buf [spineDepth]*node
	spine := buf[:0]
	for i := range nodes {
		key, value := at(i)
		x := &nodes[i]
		data = append(data, key...)
		x.key = data[len(data)-keyLen : len(data) : len(data)]
		data = append(data, value...)
		x.value = data[len(data)-len(value) : len(data) : len(data)]
		x.prio = priority(x.key)
		for len(spine) > 0 && higher(x.prio, spine[len(spine)-1].prio) {
			x.left = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
		}
		if len(spine) > 0 {
			spine[len(spine)-1].right = x
		}
		spine = append(spine, x)
	}
	if n == 0 {
		return nil
	}
	return spine[0]
}

// pending is a right-spine node of the streaming pass: its left subtree is
// final and hashed, its right subtree still open.
type pending struct {
	i    int // index of the entry in the run
	prio hashing.Hash
	left hashing.Hash
}

// RootOf returns the root hash of the tree Build would return, without
// building it: a node is hashed the moment it leaves the right spine — that
// is when its right subtree is complete — and only the spine is ever held.
func RootOf(keyLen, n int, at func(i int) (key, value []byte)) (hashing.Hash, error) {
	if _, err := trie.CheckRun(keyLen, n, at); err != nil {
		return hashing.Hash{}, err
	}
	var (
		buf   [spineDepth]pending
		spine = buf[:0]
		enc   [encScratch]byte
	)
	// pop hashes the spine's last node over right, the root of its finished
	// right subtree, and removes it.
	pop := func(right hashing.Hash) hashing.Hash {
		p := spine[len(spine)-1]
		spine = spine[:len(spine)-1]
		key, value := at(p.i)
		return hashing.Sum(appendNode(enc[:0], key, value, p.left, right))
	}
	for i := 0; i < n; i++ {
		key, _ := at(i)
		x := pending{i: i, prio: priority(key)}
		for len(spine) > 0 && higher(x.prio, spine[len(spine)-1].prio) {
			// The node passed last tops x's left subtree; each one passed
			// before it is the right child of the next.
			x.left = pop(x.left)
		}
		spine = append(spine, x)
	}
	var root hashing.Hash
	for len(spine) > 0 {
		root = pop(root)
	}
	return root, nil
}
