package state

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/trie"
	"scmove/internal/u256"
)

// The conformance suite drives every backend configuration through one
// identical randomized block script and asserts they are indistinguishable:
// same roots after every commit, same account records, same storage, same
// proof bytes, a file store whose storage iteration (keys, values, order)
// matches the in-memory trees, the same account and slot reads at every
// retained root, and (for the file backend) the same state again after a
// close-and-reopen — at the end for every file store, and in the middle of
// the script, between compactions, for one of them. Any divergence between
// the in-memory trees and the log-structured file store is a consensus bug,
// so this is a detsmoke test.

type confConfig struct {
	name string
	opts Options
	// churn makes a file store compact at every commit that leaves more
	// dead bytes than live ones, and close and reopen mid-script.
	churn bool
}

// confBlocks is the script length; confReopenAfter is the block after which
// churned stores reopen — early enough that every root retained at the end
// was committed after it (retained roots do not survive a reopen).
const (
	confBlocks      = 20
	confReopenAfter = 8
)

// openConformanceDB opens (create=false: reopens) one configuration.
func openConformanceDB(t *testing.T, kind trie.Kind, cfg confConfig, create bool) *DB {
	t.Helper()
	open := OpenDB
	if create {
		open = NewDBWith
	}
	db, err := open(localChain, kind, cfg.opts)
	if err != nil {
		t.Fatalf("%s: %v", cfg.name, err)
	}
	if cfg.churn {
		db.Backend().(*backend.File).CompactMinBytes = 1
	}
	return db
}

// backendStorage lists addr's slots as the file store itself iterates
// them; an in-memory DB has no store and lists none.
func backendStorage(db *DB, addr hashing.Address) []StorageEntry {
	var out []StorageEntry
	if db.Backend() == nil {
		return nil
	}
	db.Backend().IterateStorage(addr, func(key, val backend.Word) bool {
		out = append(out, StorageEntry{Key: key, Value: val})
		return true
	})
	return out
}

func conformanceConfigs(t *testing.T) []confConfig {
	t.Helper()
	return []confConfig{
		{name: "memory", opts: Options{}},
		// Tree caps of 1 and 2 force the eviction and rebuild-from-backend
		// paths that keeping every tree resident never hits.
		{name: "file_treecap", opts: Options{
			Backend:          backend.KindFile,
			Dir:              t.TempDir(),
			StorageTreeLimit: 1,
		}},
		{name: "file_churn", churn: true, opts: Options{
			Backend:          backend.KindFile,
			Dir:              t.TempDir(),
			StorageTreeLimit: 2,
		}},
	}
}

// confOp is one scripted state mutation, generated once and applied to
// every database so all configurations see bit-identical traffic.
type confOp func(db *DB)

type confScript struct {
	blocks [][]confOp
	pool   []hashing.Address
	slots  []evm.Word
}

// genConformanceScript draws the script. Its storage ops write nslots
// slots; past trees.StubEntries of them a storage op writes a random number
// of slots at once, so that trees grow large enough for eviction to shrink
// them to hash stubs.
func genConformanceScript(seed int64, blocks, opsPerBlock, nslots int) confScript {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]hashing.Address, 24)
	for i := range pool {
		h := hashing.Sum([]byte{byte(i), 0xA5})
		copy(pool[i][:], h[:])
	}
	slots := make([]evm.Word, nslots)
	for i := range slots {
		slots[i][30], slots[i][31] = byte((i+1)>>8), byte(i+1)
	}
	s := confScript{pool: pool, slots: slots}

	var genOp func(depth int) confOp
	genOp = func(depth int) confOp {
		addr := pool[rng.Intn(len(pool))]
		switch k := rng.Intn(12); {
		case k <= 2: // balance traffic
			amt := u256.FromUint64(uint64(rng.Intn(1000) + 1))
			if rng.Intn(2) == 0 {
				return func(db *DB) { db.AddBalance(addr, amt) }
			}
			return func(db *DB) {
				if db.GetBalance(addr).Cmp(amt) >= 0 {
					db.SubBalance(addr, amt)
				}
			}
		case k <= 4: // storage writes, including zero (deletes)
			if len(slots) > trees.StubEntries {
				writes := make([]StorageEntry, rng.Intn(len(slots)))
				for i := range writes {
					writes[i] = StorageEntry{Key: slots[rng.Intn(len(slots))], Value: word(byte(rng.Intn(5)))}
				}
				return func(db *DB) {
					for _, w := range writes {
						db.SetStorage(addr, w.Key, w.Value)
					}
				}
			}
			key := slots[rng.Intn(len(slots))]
			val := word(byte(rng.Intn(5))) // 0 = delete
			return func(db *DB) { db.SetStorage(addr, key, val) }
		case k == 5:
			n := uint64(rng.Intn(100))
			return func(db *DB) { db.SetNonce(addr, n) }
		case k == 6:
			code := []byte{0xFE, byte(rng.Intn(8))}
			return func(db *DB) {
				if !db.Exists(addr) {
					db.CreateContract(addr, code)
				}
			}
		case k == 7:
			return func(db *DB) {
				if db.Exists(addr) {
					db.DeleteAccount(addr)
				}
			}
		case k == 8: // lock to a remote chain, sometimes prune
			loc := hashing.ChainID(rng.Intn(3) + 1)
			prune := rng.Intn(2) == 0
			nonce := uint64(rng.Intn(50) + 1)
			return func(db *DB) {
				if !db.Exists(addr) {
					return
				}
				db.SetLocation(addr, loc)
				db.SetMoveNonce(addr, nonce)
				if prune && loc != db.ChainID() {
					if err := db.PruneStale(addr); err != nil {
						panic(fmt.Sprintf("prune %s: %v", addr, err))
					}
				}
			}
		case k == 9: // Move2-style import
			acct := Account{
				Nonce:     uint64(rng.Intn(20)),
				Balance:   u256.FromUint64(uint64(rng.Intn(5000))),
				MoveNonce: uint64(rng.Intn(9) + 1),
			}
			code := []byte{0xCC, byte(rng.Intn(4))}
			// A verified payload is a storage run: keys strictly ascending,
			// no zero value.
			entries := []StorageEntry{
				{Key: slots[rng.Intn(len(slots))], Value: word(byte(rng.Intn(4) + 1))},
				{Key: slots[rng.Intn(len(slots))], Value: word(byte(rng.Intn(4) + 1))},
			}
			slices.SortFunc(entries, func(a, b StorageEntry) int { return bytes.Compare(a.Key[:], b.Key[:]) })
			if entries[0].Key == entries[1].Key {
				entries = entries[:1]
			}
			return func(db *DB) { db.ImportAccount(addr, acct, code, db.buildStorageTree(entries)) }
		default: // snapshot, nested ops, revert — exercises the journal
			if depth > 1 {
				key := slots[rng.Intn(len(slots))]
				val := word(byte(rng.Intn(5)))
				return func(db *DB) { db.SetStorage(addr, key, val) }
			}
			inner := make([]confOp, rng.Intn(4)+1)
			for i := range inner {
				inner[i] = genOp(depth + 1)
			}
			keep := rng.Intn(3) == 0
			return func(db *DB) {
				snap := db.Snapshot()
				for _, op := range inner {
					op(db)
				}
				if !keep {
					db.RevertToSnapshot(snap)
				}
			}
		}
	}

	for b := 0; b < blocks; b++ {
		ops := make([]confOp, opsPerBlock)
		for i := range ops {
			ops[i] = genOp(0)
		}
		s.blocks = append(s.blocks, ops)
	}
	return s
}

// confSnapshot is what we remember about one committed root to later check
// the historical point reads (GetAccountAt, GetStorageAt) and a reopen
// against what was true at the head.
type confSnapshot struct {
	root     hashing.Hash
	accounts map[hashing.Address]Account
	present  map[hashing.Address]bool
	proofs   map[hashing.Address][]byte
	slots    map[backend.SlotKey]evm.Word
}

func takeConfSnapshot(t *testing.T, db *DB, root hashing.Hash, script confScript) confSnapshot {
	t.Helper()
	snap := confSnapshot{
		root:     root,
		accounts: make(map[hashing.Address]Account),
		present:  make(map[hashing.Address]bool),
		proofs:   make(map[hashing.Address][]byte),
		slots:    make(map[backend.SlotKey]evm.Word),
	}
	for _, a := range script.pool {
		for _, k := range script.slots {
			snap.slots[backend.SlotKey{Addr: a, Key: k}] = db.GetStorage(a, k)
		}
		acct, ok := db.GetAccount(a)
		snap.present[a] = ok
		if !ok {
			continue
		}
		snap.accounts[a] = acct
		proof, err := db.ProveAccount(a)
		if err != nil {
			t.Fatalf("prove %s at head: %v", a, err)
		}
		snap.proofs[a] = proof
	}
	return snap
}

func TestBackendConformanceDifferential(t *testing.T) {
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		t.Run(kind.String(), func(t *testing.T) {
			testBackendConformance(t, kind, int64(0xC04F)+int64(kind), 8)
		})
	}
}

// TestBackendConformanceWithSkeletons runs the conformance script with
// contracts of up to 100 slots, whose evicted trees shrink to hash stubs:
// writes, deletes, reverts, imports, prunes, deletions and a reopen over
// skeletons must leave what the in-memory trees hold.
func TestBackendConformanceWithSkeletons(t *testing.T) {
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		t.Run(kind.String(), func(t *testing.T) {
			testBackendConformance(t, kind, int64(0x5CE1)+int64(kind), 100)
		})
	}
}

func testBackendConformance(t *testing.T, kind trie.Kind, seed int64, nslots int) {
	configs := conformanceConfigs(t)
	dbs := make([]*DB, len(configs))
	for i, cfg := range configs {
		dbs[i] = openConformanceDB(t, kind, cfg, true)
	}

	script := genConformanceScript(seed, confBlocks, 40, nslots)
	shrunk := false // whether any file store held a tree with stubs
	defer func() {
		if nslots > trees.StubEntries && !shrunk && !t.Failed() {
			t.Errorf("no tree shrank to stubs: the script exercised no skeleton")
		}
	}()
	ref := dbs[0]
	var snaps []confSnapshot

	for b, ops := range script.blocks {
		for _, db := range dbs {
			for _, op := range ops {
				op(db)
			}
		}
		root := ref.Commit()
		for i, db := range dbs[1:] {
			if got := db.Commit(); got != root {
				t.Fatalf("block %d: %s root %s, %s root %s",
					b, configs[0].name, root, configs[i+1].name, got)
			}
			for _, a := range script.pool {
				tree, _ := db.StorageTreeAt(a)
				shrunk = shrunk || trees.Stubs(tree) > 0
			}
		}
		if b == confReopenAfter {
			for i, cfg := range configs {
				if !cfg.churn {
					continue
				}
				if err := dbs[i].Close(); err != nil {
					t.Fatalf("%s: close mid-script: %v", cfg.name, err)
				}
				dbs[i] = openConformanceDB(t, kind, cfg, false)
				if got := dbs[i].Root(); got != root {
					t.Fatalf("%s: reopened mid-script at %s, committed %s", cfg.name, got, root)
				}
			}
		}
		// Every read surface must agree at the new head; each file store
		// iterates exactly the storage the in-memory trees hold.
		for _, a := range script.pool {
			wantIter := ref.StorageEntries(a)
			for i, db := range dbs[1:] {
				if got := backendStorage(db, a); !slices.Equal(got, wantIter) {
					t.Fatalf("block %d: IterateStorage(%s): %s yields %d slots %v, %s yields %d slots %v",
						b, a, configs[0].name, len(wantIter), wantIter, configs[i+1].name, len(got), got)
				}
			}
			want, wantOK := ref.GetAccount(a)
			for i, db := range dbs[1:] {
				got, ok := db.GetAccount(a)
				if ok != wantOK || got != want {
					t.Fatalf("block %d: account %s: %s=(%+v,%v) %s=(%+v,%v)",
						b, a, configs[0].name, want, wantOK, configs[i+1].name, got, ok)
				}
			}
			for _, k := range script.slots {
				wantV := ref.GetStorage(a, k)
				for i, db := range dbs[1:] {
					if got := db.GetStorage(a, k); got != wantV {
						t.Fatalf("block %d: slot %s/%x: %s=%x %s=%x",
							b, a, k, configs[0].name, wantV, configs[i+1].name, got)
					}
				}
			}
			if wantOK {
				proof, err := ref.ProveAccount(a)
				if err != nil {
					t.Fatalf("block %d: prove %s: %v", b, a, err)
				}
				for i, db := range dbs[1:] {
					got, err := db.ProveAccount(a)
					if err != nil {
						t.Fatalf("block %d: %s prove %s: %v", b, configs[i+1].name, a, err)
					}
					if !bytes.Equal(got, proof) {
						t.Fatalf("block %d: proof bytes diverge for %s between %s and %s",
							b, a, configs[0].name, configs[i+1].name)
					}
				}
				wantEntries := ref.StorageEntries(a)
				for i, db := range dbs[1:] {
					gotEntries := db.StorageEntries(a)
					if len(gotEntries) != len(wantEntries) {
						t.Fatalf("block %d: %s storage payload of %s has %d entries, %s has %d",
							b, configs[0].name, a, len(wantEntries), configs[i+1].name, len(gotEntries))
					}
					for j := range wantEntries {
						if gotEntries[j] != wantEntries[j] {
							t.Fatalf("block %d: storage payload of %s diverges at %d", b, a, j)
						}
					}
				}
			}
		}
		snaps = append(snaps, takeConfSnapshot(t, ref, root, script))
	}

	// Historical reads: at every retained root — the last retainRoots
	// commits — every configuration must read each pool account and each
	// of its script slots exactly as the head showed them when that root
	// was committed.
	for _, snap := range snaps[len(snaps)-retainRoots:] {
		for di, db := range dbs {
			for _, a := range script.pool {
				acct, ok, err := db.GetAccountAt(a, snap.root)
				if err != nil {
					t.Fatalf("%s: GetAccountAt(%s, %s): %v", configs[di].name, a, snap.root, err)
				}
				if ok != snap.present[a] || (ok && acct != snap.accounts[a]) {
					t.Fatalf("%s: historical account %s at %s: got (%+v,%v), head saw (%+v,%v)",
						configs[di].name, a, snap.root, acct, ok, snap.accounts[a], snap.present[a])
				}
				for _, k := range script.slots {
					v, err := db.GetStorageAt(a, k, snap.root)
					if err != nil {
						t.Fatalf("%s: GetStorageAt(%s, %x, %s): %v", configs[di].name, a, k, snap.root, err)
					}
					if want := snap.slots[backend.SlotKey{Addr: a, Key: k}]; v != want {
						t.Fatalf("%s: historical slot %s/%x at %s reads %x, head saw %x",
							configs[di].name, a, k, snap.root, v, want)
					}
				}
			}
		}
	}
	if _, _, err := ref.GetAccountAt(script.pool[0], hashing.Sum([]byte("never-committed"))); !errors.Is(err, ErrRootNotRetained) {
		t.Fatalf("GetAccountAt at an unknown root: %v, want %v", err, ErrRootNotRetained)
	}

	// File backends must come back bit-identical after close + reopen.
	lastRoot := snaps[len(snaps)-1].root
	for i, cfg := range configs {
		if cfg.opts.Backend != backend.KindFile {
			continue
		}
		if _, err := os.Stat(filepath.Join(cfg.opts.Dir, "seg-000000.log")); cfg.churn == (err == nil) {
			t.Fatalf("%s: first segment present = %v, want compaction only under churn", cfg.name, err == nil)
		}
		if err := dbs[i].Close(); err != nil {
			t.Fatalf("%s: close: %v", cfg.name, err)
		}
		re, err := OpenDB(localChain, kind, cfg.opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", cfg.name, err)
		}
		if got := re.Root(); got != lastRoot {
			t.Fatalf("%s: reopened root %s, committed %s", cfg.name, got, lastRoot)
		}
		final := snaps[len(snaps)-1]
		for _, a := range script.pool {
			acct, ok := re.GetAccount(a)
			if ok != final.present[a] || (ok && acct != final.accounts[a]) {
				t.Fatalf("%s: reopened account %s: got (%+v,%v), want (%+v,%v)",
					cfg.name, a, acct, ok, final.accounts[a], final.present[a])
			}
			if !ok {
				continue
			}
			proof, err := re.ProveAccount(a)
			if err != nil {
				t.Fatalf("%s: reopened prove %s: %v", cfg.name, a, err)
			}
			if !bytes.Equal(proof, final.proofs[a]) {
				t.Fatalf("%s: reopened proof for %s differs", cfg.name, a)
			}
			if !bytes.Equal(re.GetCode(a), dbs[0].GetCode(a)) {
				t.Fatalf("%s: reopened code for %s differs", cfg.name, a)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close reopened: %v", cfg.name, err)
		}
		dbs[i] = nil
	}
}
