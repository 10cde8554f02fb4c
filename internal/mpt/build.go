package mpt

import (
	"scmove/internal/hashing"
	"scmove/internal/trie"
)

// Bulk construction from a strictly ascending run (trie.CheckRun).
//
// In a sorted run of fixed-length keys, the nibbles all keys share are the
// nibbles its first and last key share: any key between two keys that agree
// on a prefix agrees on it too. So a run maps onto its canonical subtree
// top-down, with nothing to split or merge afterwards: one key is a leaf;
// otherwise the keys branch at the first nibble where the ends differ,
// behind an extension when that is not the current depth, and each stretch
// of keys with the same nibble there — contiguous, because the run is
// sorted — is a child run. Fixed-length distinct keys always differ before
// they end, which is why a branch never holds a value.

// walker reads a run's packed keys in place; builder and rooter share it.
type walker struct {
	at    func(i int) (key, value []byte)
	width int // nibbles per key
}

func (w *walker) key(i int) []byte {
	key, _ := w.at(i)
	return key
}

// branchAt returns the depth at which the run [lo, hi), hi-lo > 1, whose
// keys agree on their first d nibbles, branches.
func (w *walker) branchAt(lo, hi, d int) int {
	first, last := w.key(lo), w.key(hi-1)
	p := d
	for nibbleAt(first, p) == nibbleAt(last, p) {
		p++
	}
	return p
}

// childEnd returns the end of the child run that starts at i: the keys of
// [i, hi) that carry the i-th key's nibble at depth p.
func (w *walker) childEnd(i, hi, p int) int {
	nib := nibbleAt(w.key(i), p)
	j := i + 1
	for j < hi && nibbleAt(w.key(j), p) == nib {
		j++
	}
	return j
}

// builder materialises a run into four slabs, each sized exactly by a
// counting pass: the nibble paths the leaves and extensions keep, the
// values, the nodes, and the branches' child arrays. A nibble a branch
// consumes is never copied: the branch holds it as its child's index.
type builder struct {
	walker
	nibs   []byte
	values []byte
	nodes  []node
	arrays [][16]*node
}

// shape counts what build makes for a run.
type shape struct{ nodes, branches, nibs int }

// count adds to s what build makes for the same arguments.
func (b *builder) count(lo, hi, d int, s *shape) {
	s.nodes++
	if hi-lo == 1 {
		s.nibs += b.width - d
		return
	}
	p := b.branchAt(lo, hi, d)
	s.branches++
	if p > d {
		s.nodes++ // an extension in front of the branch
		s.nibs += p - d
	}
	for i := lo; i < hi; {
		j := b.childEnd(i, hi, p)
		b.count(i, j, p+1, s)
		i = j
	}
}

func (b *builder) node(kind nodeKind) *node {
	b.nodes = b.nodes[:len(b.nodes)+1]
	n := &b.nodes[len(b.nodes)-1]
	n.kind = kind
	if kind == kindBranch {
		b.arrays = b.arrays[:len(b.arrays)+1]
		n.children = &b.arrays[len(b.arrays)-1]
	}
	return n
}

// path copies the nibbles [from, to) of the run's i-th key to the path slab.
func (b *builder) path(i, from, to int) []byte {
	start := len(b.nibs)
	b.nibs = appendPath(b.nibs, b.key(i), from, to)
	return b.nibs[start:len(b.nibs):len(b.nibs)]
}

// build returns the canonical subtree of the run [lo, hi), whose keys agree
// on their first d nibbles.
func (b *builder) build(lo, hi, d int) *node {
	if hi-lo == 1 {
		leaf := b.node(kindLeaf)
		leaf.nibbles = b.path(lo, d, b.width)
		_, value := b.at(lo)
		b.values = append(b.values, value...)
		leaf.value = b.values[len(b.values)-len(value) : len(b.values) : len(b.values)]
		return leaf
	}
	p := b.branchAt(lo, hi, d)
	branch := b.node(kindBranch)
	for i := lo; i < hi; {
		j := b.childEnd(i, hi, p)
		branch.children[nibbleAt(b.key(i), p)] = b.build(i, j, p+1)
		i = j
	}
	if p == d {
		return branch
	}
	ext := b.node(kindExt)
	ext.nibbles = b.path(lo, d, p)
	ext.child = branch
	return ext
}

// Build returns the trie holding exactly the n entries at(0) … at(n-1),
// which must form a strictly ascending run, and counts its nodes in w. It
// allocates four slabs, whatever n is; the result is an ordinary trie, not
// yet hashed.
func Build(w *trie.Work, keyLen, n int, at func(i int) (key, value []byte)) (*Tree, error) {
	t := New(keyLen)
	valueBytes, err := trie.CheckRun(keyLen, n, at)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return t, nil
	}
	t.root, t.count = buildAt(w, keyLen, n, valueBytes, 0, at), n
	return t, nil
}

// buildAt returns the subtree, d nibbles deep, of a checked run of n > 0
// entries whose keys agree on their first d nibbles, and counts its nodes
// in w.
func buildAt(w *trie.Work, keyLen, n, valueBytes, d int, at func(i int) (key, value []byte)) *node {
	b := builder{walker: walker{at: at, width: 2 * keyLen}}
	var s shape
	b.count(0, n, d, &s)
	b.nibs = make([]byte, 0, s.nibs)
	b.values = make([]byte, 0, valueBytes)
	b.nodes = make([]node, 0, s.nodes)
	b.arrays = make([][16]*node, 0, s.branches)
	w.Built(s.nodes)
	return b.build(0, n, d)
}

// nibbleAt returns the p-th nibble of a packed key.
func nibbleAt(key []byte, p int) byte {
	if p&1 == 0 {
		return key[p/2] >> 4
	}
	return key[p/2] & 0x0f
}

// appendPath appends the nibbles [from, to) of a packed key to b.
func appendPath(b, key []byte, from, to int) []byte {
	for p := from; p < to; p++ {
		b = append(b, nibbleAt(key, p))
	}
	return b
}

// rooter hashes a run top-down without building it. It reads the packed
// keys in place, so besides the recursion's stack it holds nothing.
type rooter struct{ walker }

// hash returns the hash of the node build returns for the same arguments.
func (r *rooter) hash(lo, hi, d int) hashing.Hash {
	var (
		enc  [encScratch]byte
		path [64]byte // a 32-byte key's nibbles; longer paths spill to the heap
	)
	first := r.key(lo)
	if hi-lo == 1 {
		_, value := r.at(lo)
		return hashing.Sum(appendLeaf(enc[:0], appendPath(path[:0], first, d, r.width), value))
	}
	p := r.branchAt(lo, hi, d)
	var children [16]hashing.Hash
	for i := lo; i < hi; {
		j := r.childEnd(i, hi, p)
		children[nibbleAt(r.key(i), p)] = r.hash(i, j, p+1)
		i = j
	}
	h := hashing.Sum(appendBranch(enc[:0], &children))
	if p > d {
		h = hashing.Sum(appendExt(enc[:0], appendPath(path[:0], first, d, p), h))
	}
	return h
}

// RootOf returns the root hash of the trie Build would return, without
// building it.
func RootOf(keyLen, n int, at func(i int) (key, value []byte)) (hashing.Hash, error) {
	if _, err := trie.CheckRun(keyLen, n, at); err != nil || n == 0 {
		return hashing.Hash{}, err
	}
	r := rooter{walker{at: at, width: 2 * keyLen}}
	return r.hash(0, n, 0), nil
}
