package trees_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scmove/internal/hashing"
	"scmove/internal/trees"
	"scmove/internal/trie"
)

// memSource is a trie.Source over a sorted in-memory run: what a file
// store's sorted run of one contract's slots is to a storage tree.
type memSource struct{ r run }

func (s *memSource) Get(key []byte) ([]byte, bool) {
	i := sort.Search(len(s.r), func(i int) bool { return bytes.Compare(s.r[i].k, key) >= 0 })
	if i < len(s.r) && bytes.Equal(s.r[i].k, key) {
		return s.r[i].v, true
	}
	return nil, false
}

func (s *memSource) Range(lo, hi []byte, fn func(key, value []byte) bool) {
	i := sort.Search(len(s.r), func(i int) bool { return bytes.Compare(s.r[i].k, lo) >= 0 })
	for ; i < len(s.r) && bytes.Compare(s.r[i].k, hi) <= 0; i++ {
		if !fn(s.r[i].k, s.r[i].v) {
			return
		}
	}
}

func (s *memSource) String() string { return "the test run" }

// shrinker is the Shrink both tree kinds implement, with its stub size.
type shrinker interface {
	Shrink(max int, src trie.Source, w *trie.Work) int
}

// skeletonKey spreads a key byte over a testKeyLen-byte key, so that the
// trie gets extensions and branches at several depths.
func skeletonKey(b byte) []byte {
	k := make([]byte, testKeyLen)
	k[0], k[3], k[testKeyLen-1] = b&0xc0, b&0x30, b&0x0f
	return k
}

// checkSkeleton replays ops — three bytes each: an operation, a key byte
// and a value byte — on a tree of kind and on a map. Sets and deletes go
// to both; a commit copies the map into the source, as a file store's
// commit does; a commit that shrinks then drops the tree to stubs of at
// most 1 + value%8 entries. After every op the tree must answer Get,
// Iterate, Len and RootHash as a fresh Build of the map does, and after an
// odd-numbered op whose key is present its proof must verify.
func checkSkeleton(t *testing.T, kind trie.Kind, ops []byte) {
	tr := trees.MustNew(kind, testKeyLen)
	src := &memSource{}
	model := map[string][]byte{}
	var w trie.Work
	for i := 0; i+2 < len(ops); i += 3 {
		op, k, v := ops[i]%8, skeletonKey(ops[i+1]), ops[i+2]
		switch {
		case op < 4:
			value := []byte{v | 1, op}
			if err := tr.Set(k, value); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = value
		case op < 6:
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		default:
			tr.RootHash()
			src.r = src.r[:0:0]
			for _, key := range slices.Sorted(mapKeys(model)) {
				src.r = append(src.r, entry{[]byte(key), model[key]})
			}
			if op == 7 {
				tr.(shrinker).Shrink(1+int(v%8), src, &w)
			}
		}
		want := sortedRun(modelEntries(model))
		ref, err := trees.Build(nil, kind, testKeyLen, len(want), want.at)
		if err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("%s op %d", kind, i/3)
		if tr.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", where, tr.Len(), len(want))
		}
		var got run
		tr.Iterate(func(k, v []byte) bool {
			got = append(got, entry{slices.Clone(k), slices.Clone(v)})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: Iterate lists %d entries, want %d", where, len(got), len(want))
		}
		for j := range got {
			if !bytes.Equal(got[j].k, want[j].k) || !bytes.Equal(got[j].v, want[j].v) {
				t.Fatalf("%s: Iterate entry %d is %x=%x, want %x=%x", where, j, got[j].k, got[j].v, want[j].k, want[j].v)
			}
		}
		for j := 0; j < 256; j += 16 { // the op's key and 15 spread over the rest
			key := skeletonKey(ops[i+1] + byte(j) + byte(j/16))
			v, ok := tr.Get(key)
			mv, mok := model[string(key)]
			if ok != mok || !bytes.Equal(v, mv) {
				t.Fatalf("%s: Get(%x) = %x %v, want %x %v", where, key, v, ok, mv, mok)
			}
		}
		root := tr.RootHash()
		if want := ref.RootHash(); root != want {
			t.Fatalf("%s: root %s, a fresh Build's %s", where, root, want)
		}
		if mv, ok := model[string(k)]; ok && op%2 == 1 {
			// Proving expands the stubs on the key's path.
			proof, err := tr.Prove(k)
			if err != nil {
				t.Fatalf("%s: Prove(%x): %v", where, k, err)
			}
			if e, err := trees.VerifyProof(kind, root, proof); err != nil || !bytes.Equal(e.Key, k) || !bytes.Equal(e.Value, mv) {
				t.Fatalf("%s: the proof of %x proves %x=%x (%v)", where, k, e.Key, e.Value, err)
			}
		}
	}
}

func mapKeys(m map[string][]byte) func(func(string) bool) {
	return func(yield func(string) bool) {
		for k := range m {
			if !yield(k) {
				return
			}
		}
	}
}

func modelEntries(m map[string][]byte) []entry {
	out := make([]entry, 0, len(m))
	for k, v := range m {
		out = append(out, entry{[]byte(k), v})
	}
	return out
}

// FuzzStorageSkeleton holds a tree shrunk to hash stubs at random points to
// a fresh Build of the same entries across random sets and deletes, on
// both kinds (checkSkeleton).
func FuzzStorageSkeleton(f *testing.F) {
	var seed []byte
	for i := 0; i < 120; i++ {
		seed = append(seed, 0, byte(i*37), byte(i))
	}
	seed = append(seed, 7, 0, 3)
	for i := 0; i < 60; i++ {
		seed = append(seed, byte(i%6), byte(i*53), byte(i))
		if i%15 == 14 {
			seed = append(seed, 7, 0, byte(i))
		}
	}
	f.Add(seed)
	f.Add([]byte{0, 1, 1, 0, 2, 2, 7, 0, 0, 4, 1, 0, 0, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*200)] // every op checks the whole tree
		for _, kind := range kinds {
			checkSkeleton(t, kind, ops)
		}
	})
}

// storeRun is the storage of a Store-n contract as the benchmark lays it
// out: consecutive slot indexes under one prefix, hashed values.
func storeRun(n int) run {
	r := make(run, n)
	for i := range r {
		k := make([]byte, 32)
		k[0], k[30], k[31] = 0x01, byte(i>>8), byte(i)
		v := hashing.Sum(k)
		r[i] = entry{k, v[:]}
	}
	return r
}

// TestShrinkKeepsBoundedSkeleton pins what an evicted storage tree keeps:
// at most 9·n/StubEntries nodes (stubs included) of its n entries, for a
// Store-like and a random run of 500 to 8 000 slots, on both kinds; and
// the shrunk tree still hashes and reads as the whole one. The treap keeps
// about 4·n/StubEntries. The trie's 16-way fan-out decides how big its
// stubs are: the Store layout's run in sixteens, and 2 000 random keys in
// 256 subtrees of about 8 entries, the measured worst (8.7·n/StubEntries).
func TestShrinkKeepsBoundedSkeleton(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	forEachKind(t, func(t *testing.T, kind trie.Kind) {
		for _, n := range []int{500, 2000, 8000} {
			for name, r := range map[string]run{"store": storeRun(n), "random": randomRun(rng, n, 32, 32)} {
				tr, err := trees.Build(nil, kind, 32, len(r), r.at)
				if err != nil {
					t.Fatal(err)
				}
				root := tr.RootHash()
				kept := trees.Shrink(tr, &memSource{r}, nil)
				if bound := 9 * n / trees.StubEntries; kept > bound {
					t.Errorf("%s-%d: the shrunk tree keeps %d nodes, want at most %d", name, n, kept, bound)
				}
				t.Logf("%s-%d: %d nodes kept, %d stubs", name, n, kept, trees.Stubs(tr))
				if tr.RootHash() != root || tr.Len() != n {
					t.Fatalf("%s-%d: shrinking moved the root or the length", name, n)
				}
				if v, ok := tr.Get(r[n/2].k); !ok || !bytes.Equal(v, r[n/2].v) {
					t.Fatalf("%s-%d: Get through a stub = %x %v", name, n, v, ok)
				}
			}
		}
	})
}
