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

// builder materialises a run: every key is expanded once into one nibble
// slab the nodes' paths slice into, values go to a second slab, and the
// nodes come from a third, sized exactly by a counting pass.
type builder struct {
	at     func(i int) (key, value []byte)
	width  int // nibbles per key
	nibs   []byte
	values []byte
	nodes  []node
}

// row returns the nibbles of the run's i-th key.
func (b *builder) row(i int) []byte {
	return b.nibs[i*b.width : (i+1)*b.width : (i+1)*b.width]
}

// branchAt returns the depth at which the run [lo, hi), hi-lo > 1, whose
// keys agree on their first d nibbles, branches.
func (b *builder) branchAt(lo, hi, d int) int {
	return d + commonPrefix(b.row(lo)[d:], b.row(hi - 1)[d:])
}

// childEnd returns the end of the child run that starts at i: the keys of
// [i, hi) that carry the i-th key's nibble at depth p.
func (b *builder) childEnd(i, hi, p int) int {
	nib := b.nibs[i*b.width+p]
	j := i + 1
	for j < hi && b.nibs[j*b.width+p] == nib {
		j++
	}
	return j
}

// count returns the number of nodes build makes for the same arguments.
func (b *builder) count(lo, hi, d int) int {
	if hi-lo == 1 {
		return 1
	}
	p := b.branchAt(lo, hi, d)
	c := 1
	if p > d {
		c = 2 // an extension in front of the branch
	}
	for i := lo; i < hi; {
		j := b.childEnd(i, hi, p)
		c += b.count(i, j, p+1)
		i = j
	}
	return c
}

func (b *builder) node(kind nodeKind) *node {
	b.nodes = b.nodes[:len(b.nodes)+1]
	n := &b.nodes[len(b.nodes)-1]
	n.kind = kind
	return n
}

// build returns the canonical subtree of the run [lo, hi), whose keys agree
// on their first d nibbles.
func (b *builder) build(lo, hi, d int) *node {
	if hi-lo == 1 {
		leaf := b.node(kindLeaf)
		leaf.nibbles = b.row(lo)[d:]
		_, value := b.at(lo)
		b.values = append(b.values, value...)
		leaf.value = b.values[len(b.values)-len(value) : len(b.values) : len(b.values)]
		return leaf
	}
	p := b.branchAt(lo, hi, d)
	branch := b.node(kindBranch)
	for i := lo; i < hi; {
		j := b.childEnd(i, hi, p)
		branch.children[b.nibs[i*b.width+p]] = b.build(i, j, p+1)
		i = j
	}
	if p == d {
		return branch
	}
	ext := b.node(kindExt)
	ext.nibbles = b.row(lo)[d:p:p]
	ext.child = branch
	return ext
}

// Build returns the trie holding exactly the n entries at(0) … at(n-1),
// which must form a strictly ascending run. It allocates three slabs,
// whatever n is; the result is an ordinary trie, not yet hashed.
func Build(keyLen, n int, at func(i int) (key, value []byte)) (*Tree, error) {
	t := New(keyLen)
	valueBytes, err := trie.CheckRun(keyLen, n, at)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return t, nil
	}
	b := builder{at: at, width: 2 * keyLen}
	b.nibs = make([]byte, n*b.width)
	for i := 0; i < n; i++ {
		key, _ := at(i)
		expandNibbles(b.row(i), key)
	}
	b.values = make([]byte, 0, valueBytes)
	b.nodes = make([]node, 0, b.count(0, n, 0))
	t.root, t.count = b.build(0, n, 0), n
	return t, nil
}

// nibbleAt returns the p-th nibble of a packed key.
func nibbleAt(key []byte, p int) byte {
	if p&1 == 0 {
		return key[p/2] >> 4
	}
	return key[p/2] & 0x0f
}

// rooter hashes a run top-down without building it. It reads the packed
// keys in place, so besides the recursion's stack it holds nothing.
type rooter struct {
	at    func(i int) (key, value []byte)
	width int // nibbles per key
}

func (r *rooter) key(i int) []byte {
	key, _ := r.at(i)
	return key
}

// appendPath appends the nibbles [from, to) of a packed key to b.
func appendPath(b, key []byte, from, to int) []byte {
	for p := from; p < to; p++ {
		b = append(b, nibbleAt(key, p))
	}
	return b
}

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
	last := r.key(hi - 1)
	p := d
	for nibbleAt(first, p) == nibbleAt(last, p) {
		p++
	}
	var children [16]hashing.Hash
	for i := lo; i < hi; {
		nib := nibbleAt(r.key(i), p)
		j := i + 1
		for j < hi && nibbleAt(r.key(j), p) == nib {
			j++
		}
		children[nib] = r.hash(i, j, p+1)
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
	r := rooter{at: at, width: 2 * keyLen}
	return r.hash(0, n, 0), nil
}
