package mpt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNibbleRoundTrip(t *testing.T) {
	f := func(key []byte) bool {
		nibs := make([]byte, 2*len(key))
		expandNibbles(nibs, key)
		for _, n := range nibs {
			if n > 0x0f {
				return false
			}
		}
		return bytes.Equal(nibblesToBytes(nibs), key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalShapeInvariant checks the structural invariants that make
// the trie canonical after arbitrary deletes: no extension points at an
// extension or leaf (they must be merged), and every branch has at least
// two children.
func TestCanonicalShapeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tr := New(4)
	live := map[uint32]bool{}
	for op := 0; op < 8000; op++ {
		k := uint32(rng.Intn(512))
		var key [4]byte
		binary.BigEndian.PutUint32(key[:], k)
		if rng.Intn(3) == 0 {
			if err := tr.Delete(key[:]); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
		} else {
			if err := tr.Set(key[:], []byte{byte(k), 1}); err != nil {
				t.Fatal(err)
			}
			live[k] = true
		}
		if op%500 == 0 {
			checkShape(t, tr.root)
			if tr.Len() != len(live) {
				t.Fatalf("op %d: Len %d != %d", op, tr.Len(), len(live))
			}
		}
	}
	checkShape(t, tr.root)
}

func checkShape(t *testing.T, n *node) {
	t.Helper()
	if n == nil {
		return
	}
	switch n.kind {
	case kindLeaf:
		// nothing further
	case kindExt:
		if len(n.nibbles) == 0 {
			t.Fatal("empty extension")
		}
		if n.child == nil || n.child.kind != kindBranch {
			t.Fatalf("extension must point at a branch, points at %v", n.child)
		}
		checkShape(t, n.child)
	case kindBranch:
		count := 0
		for i := 0; i < 16; i++ {
			if n.children[i] != nil {
				count++
				checkShape(t, n.children[i])
			}
		}
		if count < 2 {
			t.Fatalf("branch with %d children survived", count)
		}
	default:
		t.Fatalf("unknown node kind %d", n.kind)
	}
}

// TestDifferentialAgainstFreshTree extends TestHashCacheConsistency to the
// full authenticated surface: after randomized insert/delete/re-insert
// traffic, the long-lived tree — with its populated hash caches, encoding
// caches, and reused scratch buffers — must be indistinguishable from a
// tree built fresh from the surviving entries. Root hashes must match and
// every membership proof must be byte-identical.
func TestDifferentialAgainstFreshTree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr := New(4)
	live := map[uint32][]byte{}
	for op := 0; op < 3000; op++ {
		k := uint32(rng.Intn(256))
		var key [4]byte
		binary.BigEndian.PutUint32(key[:], k)
		if rng.Intn(4) == 0 {
			if err := tr.Delete(key[:]); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
		} else {
			v := []byte{byte(op), byte(op >> 8), 3}
			if err := tr.Set(key[:], v); err != nil {
				t.Fatal(err)
			}
			live[k] = v
		}
		if op%250 != 0 || len(live) == 0 {
			continue
		}
		fresh := New(4)
		for lk, lv := range live {
			var fk [4]byte
			binary.BigEndian.PutUint32(fk[:], lk)
			if err := fresh.Set(fk[:], lv); err != nil {
				t.Fatal(err)
			}
		}
		root := tr.RootHash()
		if fresh.RootHash() != root {
			t.Fatalf("op %d: root diverges from fresh tree", op)
		}
		for lk, lv := range live {
			var pk [4]byte
			binary.BigEndian.PutUint32(pk[:], lk)
			p1, err := tr.Prove(pk[:])
			if err != nil {
				t.Fatalf("op %d key %08x: prove (lived): %v", op, lk, err)
			}
			p2, err := fresh.Prove(pk[:])
			if err != nil {
				t.Fatalf("op %d key %08x: prove (fresh): %v", op, lk, err)
			}
			if !bytes.Equal(p1, p2) {
				t.Fatalf("op %d key %08x: proofs diverge", op, lk)
			}
			entry, err := VerifyProof(root, p1)
			if err != nil {
				t.Fatalf("op %d key %08x: verify: %v", op, lk, err)
			}
			if !bytes.Equal(entry.Key, pk[:]) || !bytes.Equal(entry.Value, lv) {
				t.Fatalf("op %d key %08x: proven entry mismatch", op, lk)
			}
		}
	}
}

func TestHashCacheConsistency(t *testing.T) {
	// Interleave reads of RootHash with mutations: the cached hashes must
	// always equal a fresh recomputation.
	rng := rand.New(rand.NewSource(9))
	a := New(4)
	for op := 0; op < 2000; op++ {
		var key [4]byte
		binary.BigEndian.PutUint32(key[:], uint32(rng.Intn(128)))
		if rng.Intn(4) == 0 {
			if err := a.Delete(key[:]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := a.Set(key[:], []byte{byte(op), 2}); err != nil {
				t.Fatal(err)
			}
		}
		if op%100 == 0 {
			cached := a.RootHash()
			rebuilt := New(4)
			a.Iterate(func(k, v []byte) bool {
				if err := rebuilt.Set(k, v); err != nil {
					t.Fatal(err)
				}
				return true
			})
			if rebuilt.RootHash() != cached {
				t.Fatalf("op %d: cached root diverges from recomputation", op)
			}
		}
	}
}
