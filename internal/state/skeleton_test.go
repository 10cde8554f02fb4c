package state

import (
	"fmt"
	"strings"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/trie"
)

// slotKey is the key of a test contract's i-th slot.
func slotKey(i int) evm.Word {
	var key evm.Word
	key[30], key[31] = byte(i>>8), byte(i)
	return key
}

// fillSlots commits n slots, slot i holding word(i%251+1), to a.
func fillSlots(db *DB, a hashing.Address, n int) {
	db.SetNonce(a, 1)
	for i := 0; i < n; i++ {
		db.SetStorage(a, slotKey(i), word(byte(i%251+1)))
	}
	db.Commit()
}

// corruptSlot overwrites one committed slot of a in db's file store behind
// the trees' back — a commit under the root the store already holds — and
// returns the value it wrote there.
func corruptSlot(t *testing.T, db *DB, a hashing.Address, key evm.Word) backend.Word {
	t.Helper()
	sk := backend.SlotKey{Addr: a, Key: key}
	prev, ok := db.Backend().Slot(sk)
	root, _ := db.Backend().LatestRoot()
	if !ok {
		t.Fatalf("slot %x of %s is not in the store", key, a)
	}
	cur := prev
	cur[0] ^= 0xff
	batch := backend.Batch{Slots: []backend.SlotChange{{Key: sk, Prev: prev, Cur: cur, PrevExisted: true, CurExists: true}}}
	if err := db.Backend().Commit(root, batch); err != nil {
		t.Fatal(err)
	}
	return cur
}

// mustPanicNaming runs f and fails unless it panics with a message that
// holds want.
func mustPanicNaming(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one naming %s", msg, want)
		}
	}()
	f()
}

// TestStubExpansionChecksTheStubHash corrupts, in the file store, one slot
// of a contract whose tree eviction shrank to hash stubs. A read of the
// slot goes to the store and sees the corruption; a write into the stub
// that holds it rebuilds the stub from the store, finds another hash, and
// panics naming the contract.
func TestStubExpansionChecksTheStubHash(t *testing.T) {
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDBWith(localChain, kind, Options{Backend: backend.KindFile, Dir: t.TempDir(), StorageTreeLimit: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			a, other := addr(1), addr(2)
			fillSlots(db, a, 300)
			fillSlots(db, other, 1) // shrinks a's tree
			if tree, _ := db.StorageTreeAt(a); trees.Stubs(tree) == 0 {
				t.Fatal("the contract's tree did not shrink to stubs")
			}
			const corrupt = 5
			bad := corruptSlot(t, db, a, slotKey(corrupt))
			if got := db.GetStorage(a, slotKey(corrupt)); got != evm.Word(bad) {
				t.Fatalf("a read of slot %d under a stub read %x, the store holds %x", corrupt, got, bad)
			}
			mustPanicNaming(t, a.String(), func() { db.SetStorage(a, slotKey(corrupt), word(99)) })
		})
	}
}

// TestRebuiltStorageTreeChecksCommittedRoot corrupts one slot of a
// committed contract in the file store and reopens it: the first write
// rebuilds the contract's storage tree from the store, and under go test
// panics, naming the contract, because the rebuilt root is not the storage
// root of the contract's committed record.
func TestRebuiltStorageTreeChecksCommittedRoot(t *testing.T) {
	opts := Options{Backend: backend.KindFile, Dir: t.TempDir()}
	db, err := NewDBWith(localChain, trie.KindIAVL, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(1)
	fillSlots(db, a, 20)
	corruptSlot(t, db, a, slotKey(3))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDB(localChain, trie.KindIAVL, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	mustPanicNaming(t, a.String(), func() { re.SetStorage(a, slotKey(4), word(99)) })
}
