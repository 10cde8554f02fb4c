package iavl

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"scmove/internal/hashing"
)

// TestTreapInvariants checks the two structural invariants after arbitrary
// operation histories: binary-search-tree order on keys and max-heap order
// on the deterministic priorities. Together they force the canonical shape
// the Move protocol's completeness check relies on.
func TestTreapInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := New(4)
	for op := 0; op < 8000; op++ {
		var key [4]byte
		binary.BigEndian.PutUint32(key[:], uint32(rng.Intn(600)))
		if rng.Intn(3) == 0 {
			if err := tr.Delete(key[:]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tr.Set(key[:], []byte{byte(op), 1}); err != nil {
				t.Fatal(err)
			}
		}
		if op%500 == 0 {
			checkInvariants(t, tr.root, nil, nil)
		}
	}
	checkInvariants(t, tr.root, nil, nil)
}

func checkInvariants(t *testing.T, n *node, lo, hi []byte) {
	t.Helper()
	if n == nil {
		return
	}
	if lo != nil && bytes.Compare(n.key, lo) <= 0 {
		t.Fatalf("BST order violated: %x <= %x", n.key, lo)
	}
	if hi != nil && bytes.Compare(n.key, hi) >= 0 {
		t.Fatalf("BST order violated: %x >= %x", n.key, hi)
	}
	if n.prio != priority(n.key) {
		t.Fatal("priority must be the deterministic hash of the key")
	}
	for _, child := range []*node{n.left, n.right} {
		if child != nil && higher(child.prio, n.prio) {
			t.Fatalf("heap order violated at %x", n.key)
		}
	}
	checkInvariants(t, n.left, lo, n.key)
	checkInvariants(t, n.right, n.key, hi)
}

func TestHashCacheMatchesRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := New(4)
	for op := 0; op < 2000; op++ {
		var key [4]byte
		binary.BigEndian.PutUint32(key[:], uint32(rng.Intn(128)))
		if rng.Intn(4) == 0 {
			if err := tr.Delete(key[:]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tr.Set(key[:], []byte{byte(op), 3}); err != nil {
				t.Fatal(err)
			}
		}
		if op%100 == 0 {
			cached := tr.RootHash()
			rebuilt := New(4)
			tr.Iterate(func(k, v []byte) bool {
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

// TestPriorityIsTheTaggedKeyHash pins the priority function across its two
// code paths: priorities fix the tree's shape, hence every root.
func TestPriorityIsTheTaggedKeyHash(t *testing.T) {
	for _, n := range []int{1, 4, 20, 32, 33, 64} {
		key := make([]byte, n)
		for i := range key {
			key[i] = byte(i*7 + n)
		}
		if got, want := priority(key), hashing.SumTagged(tagPrio, key); got != want {
			t.Fatalf("%d-byte key: priority %s, want %s", n, got, want)
		}
	}
}
