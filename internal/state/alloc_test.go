package state

import (
	"runtime"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/trie"
	"scmove/internal/u256"
)

// TestCommitReleasesWorkingSet pins the Commit contract that the decoded
// per-block working set does not accumulate across blocks: a long-running
// node's RSS would otherwise grow with every address ever touched.
func TestCommitReleasesWorkingSet(t *testing.T) {
	db := newTestDB(t)
	for i := byte(1); i <= 20; i++ {
		db.AddBalance(addr(i), u256.FromUint64(uint64(i)))
		db.SetStorage(addr(i), word(1), word(i))
	}
	if len(db.cache) == 0 {
		t.Fatal("working set empty before commit")
	}
	db.Commit()
	if len(db.cache) != 0 {
		t.Fatalf("working set holds %d entries after commit", len(db.cache))
	}
	if len(db.slotDelta) != 0 {
		t.Fatalf("slot delta holds %d entries after commit", len(db.slotDelta))
	}
	// Reads still see the committed values (now from the trees).
	if got := db.GetBalance(addr(5)); got.Cmp(u256.FromUint64(5)) != 0 {
		t.Fatalf("balance after release: %v", got)
	}
	if got := db.GetStorage(addr(5), word(1)); got != word(5) {
		t.Fatalf("storage after release: %x", got)
	}
}

// TestWarmReadsZeroAlloc pins the read path's cost: an account read served
// by the working set and a slot read served by the resident storage tree must
// not allocate.
func TestWarmReadsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	db := newTestDB(t)
	a := addr(1)
	db.AddBalance(a, u256.FromUint64(100))
	db.SetStorage(a, word(1), word(42))
	db.Commit()

	// The first post-commit read re-decodes the account into the working set.
	db.GetBalance(a)
	db.GetStorage(a, word(1))

	if avg := testing.AllocsPerRun(200, func() {
		if db.GetStorage(a, word(1)) != word(42) {
			t.Fatal("wrong storage value")
		}
	}); avg != 0 {
		t.Fatalf("warm GetStorage allocates %.1f per call", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if db.GetBalance(a).IsZero() {
			t.Fatal("wrong balance")
		}
	}); avg != 0 {
		t.Fatalf("warm GetBalance allocates %.1f per call", avg)
	}
}

// TestStorageEntriesOfEvictedContractAllocOnce pins the Move2 payload read
// of a contract whose tree eviction shrank to hash stubs: one allocation,
// the result slice, sized exactly by the file store's slot count.
func TestStorageEntriesOfEvictedContractAllocOnce(t *testing.T) {
	const slots = 300
	db, err := NewDBWith(localChain, trie.KindMPT, Options{Backend: backend.KindFile, Dir: t.TempDir(), StorageTreeLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, other := addr(1), addr(2)
	db.SetNonce(a, 1)
	db.SetNonce(other, 1)
	for i := 0; i < slots; i++ {
		var key evm.Word
		key[30], key[31] = byte(i>>8), byte(i)
		db.SetStorage(a, key, word(byte(i%251+1)))
	}
	db.Commit()
	db.SetStorage(other, word(1), word(1)) // evicts a's tree
	db.Commit()
	if tree, _ := db.StorageTreeAt(a); trees.Stubs(tree) == 0 {
		t.Fatal("the contract's tree did not shrink to stubs")
	}
	db.StorageEntries(a) // the store's read buffer exists from here on
	var entries []StorageEntry
	if n := testing.AllocsPerRun(20, func() { entries = db.StorageEntries(a) }); n != 1 {
		t.Fatalf("StorageEntries of an evicted contract allocates %.0f objects, want 1", n)
	}
	if len(entries) != slots || cap(entries) != slots {
		t.Fatalf("StorageEntries: len %d cap %d, want both %d", len(entries), cap(entries), slots)
	}
	for i, e := range entries {
		if e.Key[30] != byte(i>>8) || e.Key[31] != byte(i) || e.Value != word(byte(i%251+1)) {
			t.Fatalf("entry %d: %x = %x", i, e.Key, e.Value)
		}
	}
}

// TestSetStorageAllocatesOnlyTreeCopies pins cut one of the block path: a
// write of an existing slot allocates exactly what the storage tree's own
// Set allocates (its copies of key and value, and any node it adds), and
// the DB adds nothing — the key and value reach the tree through the DB's
// scratch, not by moving SetStorage's parameters to the heap.
func TestSetStorageAllocatesOnlyTreeCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDB(localChain, kind)
			if err != nil {
				t.Fatal(err)
			}
			a := addr(1)
			for i := byte(1); i <= 8; i++ {
				db.SetStorage(a, word(i), word(i))
			}
			db.Commit()
			key, val := word(3), word(42)
			db.SetStorage(a, key, val) // the block's first write of the slot
			tree := db.storage[a]
			set := testing.AllocsPerRun(100, func() {
				if err := tree.Set(key[:], val[:]); err != nil {
					t.Fatal(err)
				}
			})
			write := testing.AllocsPerRun(100, func() {
				db.SetStorage(a, key, val)
				db.journal.reset()
			})
			if set == 0 || write != set {
				t.Fatalf("SetStorage allocates %.1f objects, the tree's Set %.1f: want equal and nonzero", write, set)
			}
		})
	}
}

// steadyBlock writes the same shape every block — a balance and one slot of
// each of four accounts, the slot's value moving — and commits.
func steadyBlock(db *DB, i int) {
	for j := byte(1); j <= 4; j++ {
		db.AddBalance(addr(j), u256.FromUint64(1))
		db.SetStorage(addr(j), word(1), word(byte(i%250+1)))
	}
	db.Commit()
}

// TestSteadyStateCommitAllocatesOnlyTreeWork pins cut two: once the
// retained-root window is full and every diff in it was built for a block of
// this shape, a block allocates exactly what the same calls on bare trees
// allocate. The commit batch, its encoding arena and its slot changes are
// built in the arrays of the diff the window dropped, and the working set's
// records and the journal reuse theirs.
func TestSteadyStateCommitAllocatesOnlyTreeWork(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDB(localChain, kind)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ; i < 3*retainRoots; i++ {
				steadyBlock(db, i)
			}
			block := testing.AllocsPerRun(50, func() {
				steadyBlock(db, i)
				i++
			})

			// The same tree calls, on bare trees holding the same keys, with
			// keys and values in buffers made up front as the DB's are.
			accounts := trees.MustNew(kind, hashing.AddressSize)
			slots := make([]trie.Tree, 4)
			addrs := make([][]byte, 4)
			key, val := make([]byte, 32), make([]byte, 32)
			key[31], val[31] = 1, 1
			enc := (&Account{Balance: u256.FromUint64(1000), StorageRoot: hashing.Sum([]byte{1}), Location: localChain}).Encode()
			for j := range slots {
				a := addr(byte(j + 1))
				addrs[j] = a[:]
				slots[j] = trees.MustNew(kind, 32)
				if err := slots[j].Set(key, val); err != nil {
					t.Fatal(err)
				}
				if err := accounts.Set(addrs[j], enc); err != nil {
					t.Fatal(err)
				}
			}
			tree := testing.AllocsPerRun(50, func() {
				val[31] = byte(i%250 + 1)
				i++
				for j, s := range slots {
					accounts.Get(addrs[j])
					s.Get(key)
					if err := s.Set(key, val); err != nil {
						t.Fatal(err)
					}
					s.RootHash()
					if err := accounts.Set(addrs[j], enc); err != nil {
						t.Fatal(err)
					}
					s.Get(key)
				}
				accounts.RootHash()
			})
			if tree == 0 || block != tree {
				t.Fatalf("a steady-state block allocates %.1f objects, its tree calls %.1f: want equal and nonzero", block, tree)
			}
		})
	}
}

// TestMove2HomeCommitAllocationFlat pins what committing a Move2 home costs
// over a file store: a contract returns to a chain whose only copy of its
// storage is the locked stale one in the file store, and the commit diffs
// the installed tree against that copy. The copy is read into the DB's
// scratch, so once one commit has grown it, the commit allocates the same
// bytes for a 500-slot and a 2 000-slot contract.
func TestMove2HomeCommitAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		t.Run(kind.String(), func(t *testing.T) {
			measure := func(slots int) uint64 {
				db, err := NewDBWith(localChain, kind, Options{Backend: backend.KindFile, Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				a := addr(1)
				db.CreateContract(a, []byte{0x00})
				entries := make([]StorageEntry, slots)
				for i := range entries {
					entries[i].Key[30], entries[i].Key[31] = byte(i>>8), byte(i)
					entries[i].Value = word(byte(i%251 + 1))
					db.SetStorage(a, entries[i].Key, entries[i].Value)
				}
				root := db.Commit()
				acct, _ := db.GetAccount(a)
				// home installs the storage as a Move2 does, over a stale
				// copy that only the file store holds, and commits.
				home := func(measured bool) uint64 {
					delete(db.storage, a)
					tree := db.buildStorageTree(entries)
					tree.RootHash()
					db.ImportAccount(a, acct, nil, tree)
					var before, after runtime.MemStats
					if measured {
						runtime.ReadMemStats(&before)
					}
					got := db.Commit()
					if measured {
						runtime.ReadMemStats(&after)
					}
					if got != root {
						t.Fatalf("%d slots: the Move2 home moved the root to %s, want %s", slots, got, root)
					}
					return after.TotalAlloc - before.TotalAlloc
				}
				for i := 0; i < retainRoots; i++ {
					home(false)
				}
				best := home(true)
				for i := 0; i < 4; i++ {
					best = min(best, home(true))
				}
				return best
			}
			small, large := measure(500), measure(2000)
			if small != large {
				t.Fatalf("a Move2 home's commit allocates %d B at 500 slots and %d B at 2 000: want equal", small, large)
			}
		})
	}
}
