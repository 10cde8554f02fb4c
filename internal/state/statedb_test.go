package state

import (
	"encoding/binary"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state/backend"
	"scmove/internal/trie"
	"scmove/internal/u256"
)

const localChain = hashing.ChainID(1)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB(localChain, trie.KindMPT)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func addr(b byte) hashing.Address {
	var a hashing.Address
	a[0] = b
	return a
}

func word(b byte) evm.Word {
	var w evm.Word
	w[31] = b
	return w
}

func TestAccountRoundTrip(t *testing.T) {
	a := Account{
		Nonce:       7,
		Balance:     u256.FromUint64(1234),
		CodeHash:    hashing.Sum([]byte("code")),
		StorageRoot: hashing.Sum([]byte("root")),
		Location:    hashing.ChainID(3),
		MoveNonce:   9,
	}
	got, err := DecodeAccount(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
}

// TestAccountEncodedSize: Commit sizes its encoding arena with
// encodedSize before it encodes, so the two must agree for every varint
// width.
func TestAccountEncodedSize(t *testing.T) {
	for _, a := range []Account{
		{},
		{Nonce: 127, Location: 127, MoveNonce: 127},
		{Nonce: 128, Balance: u256.FromUint64(1 << 40), Location: 1 << 20, MoveNonce: 1 << 35},
		{Nonce: ^uint64(0), Location: hashing.ChainID(^uint64(0)), MoveNonce: ^uint64(0)},
	} {
		if enc := a.Encode(); len(enc) != a.encodedSize() || cap(enc) != len(enc) {
			t.Fatalf("%+v: encoding of %d bytes (cap %d), encodedSize %d", a, len(enc), cap(enc), a.encodedSize())
		}
	}
}

func TestDecodeAccountRejectsGarbage(t *testing.T) {
	if _, err := DecodeAccount([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestBalanceNonce(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	if !db.GetBalance(a).IsZero() || db.GetNonce(a) != 0 {
		t.Fatal("fresh account must be zero")
	}
	db.AddBalance(a, u256.FromUint64(100))
	db.SubBalance(a, u256.FromUint64(30))
	db.SetNonce(a, 5)
	if got := db.GetBalance(a); !got.Eq(u256.FromUint64(70)) {
		t.Fatalf("balance = %s", got)
	}
	if db.GetNonce(a) != 5 {
		t.Fatalf("nonce = %d", db.GetNonce(a))
	}
	if !db.Exists(a) {
		t.Fatal("touched account must exist")
	}
}

func TestStorageSetGetDelete(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.SetStorage(a, word(1), word(9))
	if got := db.GetStorage(a, word(1)); got != word(9) {
		t.Fatalf("storage = %x", got)
	}
	// Zero value deletes.
	db.SetStorage(a, word(1), evm.Word{})
	if got := db.GetStorage(a, word(1)); got != (evm.Word{}) {
		t.Fatalf("deleted storage = %x", got)
	}
	if len(db.StorageEntries(a)) != 0 {
		t.Fatal("no entries expected after delete")
	}
}

func TestSnapshotRevert(t *testing.T) {
	db := newTestDB(t)
	a, b := addr(1), addr(2)
	db.AddBalance(a, u256.FromUint64(50))
	db.SetStorage(a, word(1), word(1))

	snap := db.Snapshot()
	db.AddBalance(a, u256.FromUint64(100))
	db.SetStorage(a, word(1), word(2))
	db.SetStorage(a, word(2), word(3))
	db.SetNonce(b, 9)
	db.CreateContract(b, []byte("some code"))
	db.AddLog(&evm.Log{Address: a})
	db.SetLocation(a, hashing.ChainID(7))
	db.SetMoveNonce(a, 3)

	db.RevertToSnapshot(snap)

	if got := db.GetBalance(a); !got.Eq(u256.FromUint64(50)) {
		t.Fatalf("balance after revert = %s", got)
	}
	if got := db.GetStorage(a, word(1)); got != word(1) {
		t.Fatalf("storage[1] after revert = %x", got)
	}
	if got := db.GetStorage(a, word(2)); got != (evm.Word{}) {
		t.Fatalf("storage[2] after revert = %x", got)
	}
	if db.Exists(b) {
		t.Fatal("account b must not exist after revert")
	}
	if len(db.GetCode(b)) != 0 {
		t.Fatal("code must be gone after revert")
	}
	if logs := db.TakeLogs(); len(logs) != 0 {
		t.Fatalf("logs after revert = %d", len(logs))
	}
	if db.GetLocation(a) != localChain {
		t.Fatal("location must revert to local")
	}
	if db.GetMoveNonce(a) != 0 {
		t.Fatal("move nonce must revert")
	}
}

func TestNestedSnapshots(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.SetStorage(a, word(1), word(1))
	s1 := db.Snapshot()
	db.SetStorage(a, word(1), word(2))
	s2 := db.Snapshot()
	db.SetStorage(a, word(1), word(3))
	db.RevertToSnapshot(s2)
	if got := db.GetStorage(a, word(1)); got != word(2) {
		t.Fatalf("after inner revert = %x", got)
	}
	db.RevertToSnapshot(s1)
	if got := db.GetStorage(a, word(1)); got != word(1) {
		t.Fatalf("after outer revert = %x", got)
	}
}

func TestCommitRootReflectsContents(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.AddBalance(a, u256.FromUint64(10))
	r1 := db.Commit()
	if r1.IsZero() {
		t.Fatal("root must be non-zero after commit")
	}
	// Identical content on a fresh DB commits to the same root.
	db2 := newTestDB(t)
	db2.AddBalance(a, u256.FromUint64(10))
	if r2 := db2.Commit(); r2 != r1 {
		t.Fatalf("equal state, different roots: %s vs %s", r1, r2)
	}
	// Changing state changes the root.
	db.AddBalance(a, u256.FromUint64(1))
	if db.Commit() == r1 {
		t.Fatal("root must change with balance")
	}
}

func TestCommitIncludesStorageRoot(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.CreateContract(a, []byte("c"))
	db.SetStorage(a, word(1), word(1))
	r1 := db.Commit()
	db.SetStorage(a, word(1), word(2))
	if db.Commit() == r1 {
		t.Fatal("storage change must change the state root")
	}
}

func TestEmptyAccountOmittedFromTree(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.AddBalance(a, u256.FromUint64(5))
	db.SubBalance(a, u256.FromUint64(5))
	db.Commit()
	if db.AccountCount() != 0 {
		t.Fatalf("empty account committed: count=%d", db.AccountCount())
	}
}

func TestProveAccountAfterCommit(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.AddBalance(a, u256.FromUint64(10))
	root := db.Commit()
	proof, err := db.ProveAccount(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) == 0 || root.IsZero() {
		t.Fatal("expected proof and root")
	}
}

func TestLocationDefaultsToLocal(t *testing.T) {
	db := newTestDB(t)
	if db.GetLocation(addr(9)) != localChain {
		t.Fatal("absent accounts are implicitly local")
	}
	db.SetLocation(addr(9), hashing.ChainID(4))
	if db.GetLocation(addr(9)) != hashing.ChainID(4) {
		t.Fatal("explicit location must stick")
	}
}

func TestImportAccount(t *testing.T) {
	db := newTestDB(t)
	a := addr(3)
	code := []byte("imported code")
	entries := []StorageEntry{{Key: word(1), Value: word(7)}, {Key: word(2), Value: word(8)}}
	db.ImportAccount(a, Account{
		Nonce: 2, Balance: u256.FromUint64(99), MoveNonce: 4,
	}, code, db.buildStorageTree(entries))

	acct, ok := db.GetAccount(a)
	if !ok {
		t.Fatal("account must exist")
	}
	if acct.Nonce != 2 || !acct.Balance.Eq(u256.FromUint64(99)) || acct.MoveNonce != 4 {
		t.Fatalf("imported account %+v", acct)
	}
	if acct.Location != localChain {
		t.Fatal("imported account must be local")
	}
	if string(db.GetCode(a)) != string(code) {
		t.Fatal("code mismatch")
	}
	if db.GetStorage(a, word(2)) != word(8) {
		t.Fatal("storage mismatch")
	}
}

func TestImportAccountRevertable(t *testing.T) {
	db := newTestDB(t)
	a := addr(3)
	snap := db.Snapshot()
	db.ImportAccount(a, Account{Nonce: 1}, []byte("c"), db.buildStorageTree([]StorageEntry{{Key: word(1), Value: word(1)}}))
	db.RevertToSnapshot(snap)
	if db.Exists(a) {
		t.Fatal("import must roll back")
	}
	if db.GetStorage(a, word(1)) != (evm.Word{}) {
		t.Fatal("imported storage must roll back")
	}
}

func TestPruneStale(t *testing.T) {
	db := newTestDB(t)
	a := addr(5)
	db.CreateContract(a, []byte("code"))
	db.SetStorage(a, word(1), word(1))
	db.AddBalance(a, u256.FromUint64(10))
	db.SetMoveNonce(a, 3)

	// Still local: prune must refuse.
	if err := db.PruneStale(a); err == nil {
		t.Fatal("pruning a local contract must fail")
	}
	db.SetLocation(a, hashing.ChainID(2))
	if err := db.PruneStale(a); err != nil {
		t.Fatal(err)
	}
	if len(db.GetCode(a)) != 0 || len(db.StorageEntries(a)) != 0 {
		t.Fatal("prune must drop code and storage")
	}
	if !db.GetBalance(a).IsZero() {
		t.Fatal("prune must zero the locked balance")
	}
	// The tombstone keeps the replay-protection state (Fig. 2).
	if db.GetMoveNonce(a) != 3 {
		t.Fatal("prune must keep the move nonce")
	}
	if db.GetLocation(a) != hashing.ChainID(2) {
		t.Fatal("prune must keep the location")
	}
}

func TestDeleteAccount(t *testing.T) {
	db := newTestDB(t)
	a := addr(6)
	db.CreateContract(a, []byte("code"))
	db.SetStorage(a, word(1), word(2))
	snap := db.Snapshot()
	db.DeleteAccount(a)
	if db.Exists(a) || db.GetStorage(a, word(1)) != (evm.Word{}) {
		t.Fatal("delete must clear the account")
	}
	db.RevertToSnapshot(snap)
	if !db.Exists(a) || db.GetStorage(a, word(1)) != word(2) {
		t.Fatal("delete must be revertable")
	}
}

func TestTakeLogsClears(t *testing.T) {
	db := newTestDB(t)
	db.AddLog(&evm.Log{Address: addr(1)})
	db.AddLog(&evm.Log{Address: addr(2)})
	if got := db.TakeLogs(); len(got) != 2 {
		t.Fatalf("TakeLogs = %d", len(got))
	}
	if got := db.TakeLogs(); len(got) != 0 {
		t.Fatalf("second TakeLogs = %d", len(got))
	}
}

func TestCommitDeterministicAcrossDirtyOrder(t *testing.T) {
	// Commit sorts dirty accounts; two DBs touched in different orders must
	// produce the same root.
	db1 := newTestDB(t)
	db2 := newTestDB(t)
	for i := 0; i < 20; i++ {
		db1.AddBalance(addr(byte(i)), u256.FromUint64(uint64(i+1)))
	}
	for i := 19; i >= 0; i-- {
		db2.AddBalance(addr(byte(i)), u256.FromUint64(uint64(i+1)))
	}
	if db1.Commit() != db2.Commit() {
		t.Fatal("commit order must not affect the root")
	}
}

// buildDirtyState creates a DB with many dirty accounts and storage trees,
// deterministic in its inputs.
func buildDirtyState(t *testing.T, kind trie.Kind, accounts, slots int) *DB {
	t.Helper()
	db, err := NewDB(1, kind)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < accounts; a++ {
		var raw [8]byte
		binary.BigEndian.PutUint64(raw[:], uint64(a+1))
		addr := hashing.AddressFromBytes(raw[:])
		db.AddBalance(addr, u256.FromUint64(uint64(1000+a)))
		db.SetNonce(addr, uint64(a))
		for s := 0; s < slots; s++ {
			var key, val evm.Word
			key[31] = byte(s + 1)
			val[0] = byte(a + 1)
			val[31] = byte(s + 1)
			db.SetStorage(addr, key, val)
		}
	}
	return db
}

// sharedPoolWorkers is the size of keys.SharedPool: creating the pool here,
// at package init, sizes it to the process's GOMAXPROCS before any test
// changes that.
var sharedPoolWorkers = func() int {
	keys.SharedPool()
	return runtime.GOMAXPROCS(0)
}()

// TestCommitDoesNotWaitOnSharedPool holds every shared crypto worker and
// requires a commit of many dirty accounts with storage, on both tree kinds
// and with more than one CPU, to return anyway: commit hashing runs on the
// committing goroutine and never queues behind the pool's client signatures.
func TestCommitDoesNotWaitOnSharedPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	var dbs []*DB
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		dbs = append(dbs, buildDirtyState(t, kind, 24, 6))
	}

	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(sharedPoolWorkers)
	for i := 0; i < sharedPoolWorkers; i++ {
		keys.SharedPool().Go(func() {
			held.Done()
			<-gate
		})
	}
	held.Wait()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, db := range dbs {
			db.Commit()
		}
	}()
	blocked := false
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		blocked = true
	}
	close(gate)
	<-done
	if blocked {
		t.Fatal("Commit waited on the crypto pool")
	}
}

// NewDBWith refuses a file backend directory that already holds state, and
// must close the store it opened to find that out.
func TestNewDBWithClosesRefusedStore(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	opts := Options{Backend: backend.KindFile, Dir: t.TempDir()}
	db, err := NewDBWith(localChain, trie.KindMPT, opts)
	if err != nil {
		t.Fatal(err)
	}
	db.AddBalance(addr(1), u256.FromUint64(1))
	db.Commit()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := openFDs()
	if _, err := NewDBWith(localChain, trie.KindMPT, opts); err == nil {
		t.Fatal("NewDBWith accepted a directory that already holds state")
	}
	if after := openFDs(); after != before {
		t.Fatalf("open file descriptors: %d before NewDBWith, %d after it refused", before, after)
	}
}
