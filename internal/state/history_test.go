package state

import (
	"errors"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
	"scmove/internal/trie"
)

// TestHistoryWindow commits two roots past the retained window: the two
// oldest expire, the oldest retained one still reads its account and slots
// as committed, and an unknown root is refused.
func TestHistoryWindow(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	var roots []hashing.Hash
	for i := byte(1); i <= retainRoots+2; i++ {
		db.SetNonce(a, uint64(i))
		db.SetStorage(a, word(1), word(i))
		if i == 5 {
			db.SetStorage(a, word(2), word(50))
		}
		roots = append(roots, db.Commit())
	}
	for _, expired := range roots[:2] {
		if _, _, err := db.GetAccountAt(a, expired); !errors.Is(err, ErrRootNotRetained) {
			t.Fatalf("account at an expired root: %v, want %v", err, ErrRootNotRetained)
		}
		if _, err := db.GetStorageAt(a, word(1), expired); !errors.Is(err, ErrRootNotRetained) {
			t.Fatalf("slot at an expired root: %v, want %v", err, ErrRootNotRetained)
		}
	}
	oldest := roots[2]
	if acct, ok, err := db.GetAccountAt(a, oldest); err != nil || !ok || acct.Nonce != 3 {
		t.Fatalf("account at the oldest retained root: nonce %d, %v, %v; want 3", acct.Nonce, ok, err)
	}
	for _, c := range []struct {
		key, want evm.Word
	}{
		{word(1), word(3)},
		{word(2), evm.Word{}}, // written two commits later
	} {
		if v, err := db.GetStorageAt(a, c.key, oldest); err != nil || v != c.want {
			t.Fatalf("slot %x at the oldest retained root: %x, %v; want %x", c.key, v, err, c.want)
		}
	}
	if v, err := db.GetStorageAt(a, word(2), roots[len(roots)-1]); err != nil || v != word(50) {
		t.Fatalf("slot at the head root: %x, %v; want %x", v, err, word(50))
	}
	unknown := hashing.Sum([]byte("never committed"))
	if _, _, err := db.GetAccountAt(a, unknown); !errors.Is(err, ErrRootNotRetained) {
		t.Fatalf("account at an unknown root: %v, want %v", err, ErrRootNotRetained)
	}
	if _, err := db.GetStorageAt(a, word(1), unknown); !errors.Is(err, ErrRootNotRetained) {
		t.Fatalf("slot at an unknown root: %v, want %v", err, ErrRootNotRetained)
	}
}

// TestReopenedDBServesHeadRoot: a DB reopened from its file store serves the
// historical point reads at the root it reopened at, before any commit.
func TestReopenedDBServesHeadRoot(t *testing.T) {
	opts := Options{Backend: backend.KindFile, Dir: t.TempDir()}
	db, err := NewDBWith(localChain, trie.KindMPT, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(1)
	db.SetNonce(a, 7)
	db.SetStorage(a, word(1), word(9))
	root := db.Commit()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDB(localChain, trie.KindMPT, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if acct, ok, err := re.GetAccountAt(a, root); err != nil || !ok || acct.Nonce != 7 {
		t.Fatalf("reopened account at the head root: nonce %d, %v, %v; want 7", acct.Nonce, ok, err)
	}
	if v, err := re.GetStorageAt(a, word(1), root); err != nil || v != word(9) {
		t.Fatalf("reopened slot at the head root: %x, %v; want %x", v, err, word(9))
	}
}
