package state

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/trie"
	"scmove/internal/u256"
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

// TestHistoryRecordAllocFreeOnceFull pins that a commit's history entry
// costs no allocation once the window is full: the ring slides in place,
// oldest out, and keeps the newest retainRoots roots in commit order with
// the diffs of all but the oldest.
func TestHistoryRecordAllocFreeOnceFull(t *testing.T) {
	var h history
	root := func(i int) hashing.Hash { return hashing.Sum([]byte{byte(i), byte(i >> 8)}) }
	n := 0
	for ; n < retainRoots; n++ {
		h.record(root(n), revDiff{})
	}
	if a := testing.AllocsPerRun(100, func() {
		h.record(root(n), revDiff{})
		n++
	}); a != 0 {
		t.Fatalf("record into a full window allocates %.0f objects, want 0", a)
	}
	if len(h.roots) != retainRoots || len(h.diffs) != retainRoots-1 {
		t.Fatalf("window holds %d roots and %d diffs, want %d and %d", len(h.roots), len(h.diffs), retainRoots, retainRoots-1)
	}
	for i, r := range h.roots {
		if want := root(n - retainRoots + i); r != want {
			t.Fatalf("window slot %d holds %s, want %s", i, r, want)
		}
	}
}

// historySnap is what one commit left: the root, and every account record,
// slot and account proof of the test's address space as read at the head
// right after the commit.
type historySnap struct {
	root   hashing.Hash
	accts  map[hashing.Address]Account
	slots  map[backend.SlotKey]evm.Word
	proofs map[hashing.Address][]byte
}

// TestRecycledHistoryMatchesSnapshots is the safety net under the ring's
// recycling: every Commit builds its batch in the arrays of the diff its
// own record drops from the window. It runs 32 commits whose batches grow
// and shrink — so a recycled array is sometimes too short, sometimes longer
// than needed, and after a quiet stretch so much longer that the ring lets
// it go — over balance, nonce and slot writes, deletions, wiped storage and
// imported storage, and after every commit reads every retained root back.
// GetAccountAt and GetStorageAt must return what the head served right
// after that root's commit, and the record must be the one the account
// proof taken then commits to under the root. (Proofs are served at the
// head only, so the proof side is the snapshot's.)
func TestRecycledHistoryMatchesSnapshots(t *testing.T) {
	for _, c := range []struct {
		name string
		kind trie.Kind
		opts Options
	}{
		{"memory-mpt", trie.KindMPT, Options{}},
		{"memory-iavl", trie.KindIAVL, Options{}},
		{"file-mpt", trie.KindMPT, Options{Backend: backend.KindFile, StorageTreeLimit: 3}},
		{"file-iavl", trie.KindIAVL, Options{Backend: backend.KindFile, StorageTreeLimit: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.opts.Backend == backend.KindFile {
				c.opts.Dir = t.TempDir()
			}
			db, err := NewDBWith(localChain, c.kind, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const nAddr, nSlot = 24, 5
			rng := rand.New(rand.NewSource(7))
			// Ops per commit. A period of 11 against a ring of 9 array sets
			// hands every set short and long batches in turn; the quiet
			// stretch between two periods leaves the big batches' arrays
			// outsized, so the ring lets them go.
			busy := []int{3, 60, 8, 0, 90, 15, 1, 40, 5, 75, 2}
			quiet := []int{1, 0, 2, 1, 0, 1, 2, 0, 1, 1}
			sizes := slices.Concat(busy, quiet, busy)
			var snaps []historySnap
			for _, size := range sizes {
				for op := 0; op < size; op++ {
					a := addr(byte(1 + rng.Intn(nAddr)))
					switch r := rng.Intn(20); {
					case r < 5:
						db.AddBalance(a, u256.FromUint64(uint64(1+rng.Intn(100))))
					case r < 7:
						db.SetNonce(a, uint64(rng.Intn(50)))
					case r < 16:
						db.SetStorage(a, word(byte(1+rng.Intn(nSlot))), word(byte(rng.Intn(4)))) // 0 deletes
					case r < 17:
						db.DeleteAccount(a)
					case r < 18:
						db.WipeStorage(a)
					default:
						imported := trees.MustNew(c.kind, 32)
						for k := byte(1); k <= nSlot; k++ {
							if rng.Intn(2) == 0 {
								key, val := word(k), word(byte(10+rng.Intn(5)))
								if err := imported.Set(key[:], val[:]); err != nil {
									t.Fatal(err)
								}
							}
						}
						db.ImportAccount(a, Account{Balance: u256.FromUint64(7), Nonce: 1}, nil, imported)
					}
				}
				snaps = append(snaps, takeHistorySnap(t, db, db.Commit(), nAddr, nSlot))
				first := max(0, len(snaps)-retainRoots)
				for _, s := range snaps[first:] {
					checkHistorySnap(t, db, c.kind, s)
				}
			}
		})
	}
}

func takeHistorySnap(t *testing.T, db *DB, root hashing.Hash, nAddr, nSlot int) historySnap {
	t.Helper()
	s := historySnap{
		root:   root,
		accts:  make(map[hashing.Address]Account),
		slots:  make(map[backend.SlotKey]evm.Word),
		proofs: make(map[hashing.Address][]byte),
	}
	for i := 1; i <= nAddr; i++ {
		a := addr(byte(i))
		if acct, ok := db.GetAccount(a); ok {
			s.accts[a] = acct
			proof, err := db.ProveAccount(a)
			if err != nil {
				t.Fatal(err)
			}
			s.proofs[a] = proof
		}
		for k := 1; k <= nSlot; k++ {
			key := word(byte(k))
			s.slots[backend.SlotKey{Addr: a, Key: key}] = db.GetStorage(a, key)
		}
	}
	return s
}

func checkHistorySnap(t *testing.T, db *DB, kind trie.Kind, s historySnap) {
	t.Helper()
	for sk, want := range s.slots {
		got, err := db.GetStorageAt(sk.Addr, sk.Key, s.root)
		if err != nil || got != want {
			t.Fatalf("root %s: slot %x of %s reads %x, %v; committed %x", s.root, sk.Key[31:], sk.Addr, got, err, want)
		}
		if sk.Key != word(1) {
			continue
		}
		acct, ok, err := db.GetAccountAt(sk.Addr, s.root)
		want, exists := s.accts[sk.Addr]
		if err != nil || ok != exists || acct != want {
			t.Fatalf("root %s: account %s reads %+v (%v, %v); committed %+v (%v)", s.root, sk.Addr, acct, ok, err, want, exists)
		}
		if !ok {
			continue
		}
		proven, err := trees.VerifyProof(kind, s.root, s.proofs[sk.Addr])
		if err != nil || !bytes.Equal(proven.Key, sk.Addr[:]) || !bytes.Equal(proven.Value, acct.Encode()) {
			t.Fatalf("root %s: the record read for %s is not the one its proof commits to (%v)", s.root, sk.Addr, err)
		}
	}
}
