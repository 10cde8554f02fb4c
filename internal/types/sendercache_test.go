package types

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/u256"
)

func signedTx(t testing.TB, kp *keys.KeyPair, nonce uint64) *Transaction {
	t.Helper()
	tx := &Transaction{
		ChainID:  1,
		Nonce:    nonce,
		Kind:     TxCall,
		To:       hashing.AddressFromBytes([]byte{0x07}),
		Value:    u256.FromUint64(nonce + 1),
		GasLimit: 21_000,
		GasPrice: u256.FromUint64(2),
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

// resetSenderCache gives each test an empty cache at a known capacity.
func resetSenderCache(t testing.TB, capacity int) {
	t.Helper()
	SetSenderCacheCapacity(capacity)
	t.Cleanup(func() { SetSenderCacheCapacity(0) })
}

func TestSenderCacheHitAcrossCopies(t *testing.T) {
	resetSenderCache(t, 64)
	kp := keys.Deterministic(1)
	tx := signedTx(t, kp, 0)

	// A decoded copy has no verifiedID memo; the cache (seeded by Sign)
	// must recover the sender without a fresh verification.
	copyTx, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	before := ReadSenderCacheStats()
	addr, err := copyTx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if addr != kp.Address() {
		t.Fatalf("sender %s, want %s", addr, kp.Address())
	}
	after := ReadSenderCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("expected one cache hit, stats before %+v after %+v", before, after)
	}
}

func TestSenderCacheReplayedSignatureOnDifferentPayload(t *testing.T) {
	resetSenderCache(t, 64)
	kp := keys.Deterministic(1)
	tx := signedTx(t, kp, 0)

	// Graft the genuine signature onto different content. The id changes,
	// so the cache must miss, and full verification must reject it.
	forged, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	forged.Value = u256.FromUint64(1 << 40)
	if forged, err = DecodeTransaction(forged.Encode()); err != nil { // as the altered bytes arrive
		t.Fatal(err)
	}
	before := ReadSenderCacheStats()
	if _, err := forged.Sender(); err == nil {
		t.Fatal("replayed signature on altered payload must fail verification")
	}
	after := ReadSenderCacheStats()
	if after.Hits != before.Hits {
		t.Fatalf("forged payload must not hit the cache: before %+v after %+v", before, after)
	}

	// Same id with different signature bytes must also miss: re-signing by
	// another key yields sig bytes whose digest cannot match the entry.
	other := keys.Deterministic(2)
	mismatch, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := other.Sign(mismatch.ID())
	if err != nil {
		t.Fatal(err)
	}
	mismatch.Sig = sig
	if _, err := mismatch.Sender(); err == nil {
		t.Fatal("signature by another key must fail the From check")
	}
}

func TestSenderCacheEvictionAtCapacity(t *testing.T) {
	const capacity = 8
	resetSenderCache(t, capacity)
	kp := keys.Deterministic(1)
	txs := make([]*Transaction, capacity+4)
	base := ReadSenderCacheStats() // the counters are cumulative across tests
	for i := range txs {
		txs[i] = signedTx(t, kp, uint64(i)) // Sign stores each entry
	}
	stats := ReadSenderCacheStats()
	if got := stats.Evictions - base.Evictions; got != uint64(len(txs)-capacity) {
		t.Fatalf("evictions = %d, want %d", got, len(txs)-capacity)
	}
	if got := len(senderCache.entries); got != capacity {
		t.Fatalf("cache holds %d entries, cap is %d", got, capacity)
	}
	// The oldest entries are gone: a fresh copy of tx 0 must miss ...
	old, err := DecodeTransaction(txs[0].Encode())
	if err != nil {
		t.Fatal(err)
	}
	before := ReadSenderCacheStats()
	if _, err := old.Sender(); err != nil {
		t.Fatal(err) // slow path still verifies fine
	}
	mid := ReadSenderCacheStats()
	if mid.Misses != before.Misses+1 {
		t.Fatalf("evicted entry must miss: before %+v after %+v", before, mid)
	}
	// ... while the newest still hits.
	fresh, err := DecodeTransaction(txs[len(txs)-1].Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Sender(); err != nil {
		t.Fatal(err)
	}
	after := ReadSenderCacheStats()
	if after.Hits != mid.Hits+1 {
		t.Fatalf("recent entry must hit: before %+v after %+v", mid, after)
	}
}

func TestSenderCacheHitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("hasher pool reuse is nondeterministic under -race (sync.Pool drops Puts)")
	}
	resetSenderCache(t, 64)
	kp := keys.Deterministic(1)
	tx := signedTx(t, kp, 0)
	copyTx, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := copyTx.Sender(); err != nil {
		t.Fatal(err)
	}
	// Strip the memo each round so every iteration takes the shared-cache
	// path, not the per-object fast path.
	if avg := testing.AllocsPerRun(200, func() {
		copyTx.verifiedID = hashing.Hash{}
		if _, err := copyTx.Sender(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("cache-hit Sender allocates %.1f per call, want 0", avg)
	}
}

// TestSenderCacheStoreSteadyStateZeroAllocs pins the intrusive-LRU recycling
// paths: storing new entries into a cache at capacity reuses the evicted
// tail, and refilling after a reset reuses the entries the reset chained
// onto the free list. Neither path may allocate.
func TestSenderCacheStoreSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("hasher pool reuse is nondeterministic under -race (sync.Pool drops Puts)")
	}
	const capacity = 32
	resetSenderCache(t, capacity)
	kp := keys.Deterministic(1)
	addr := kp.Address()
	tx := signedTx(t, kp, 0)
	sig := &tx.Sig
	// Fill to capacity; these stores allocate the entry structs once.
	var id hashing.Hash
	for i := 1; i <= capacity; i++ {
		id[0], id[1] = byte(i), byte(i>>8)
		senderCache.store(id, sig, addr)
	}
	if got := len(senderCache.entries); got != capacity {
		t.Fatalf("cache holds %d entries, want %d", got, capacity)
	}
	// At capacity every store evicts the tail and must reuse its entry.
	n := capacity
	if avg := testing.AllocsPerRun(200, func() {
		n++
		id[0], id[1] = byte(n), byte(n>>8)
		senderCache.store(id, sig, addr)
	}); avg != 0 {
		t.Fatalf("store at capacity allocates %.2f per op, want 0", avg)
	}
	// A reset recycles the discarded entries onto the free list; refilling
	// must consume them instead of allocating.
	SetSenderCacheCapacity(capacity)
	if senderCache.free == nil {
		t.Fatal("reset must chain discarded entries onto the free list")
	}
	if avg := testing.AllocsPerRun(capacity-1, func() {
		n++
		id[0], id[1] = byte(n), byte(n>>8)
		senderCache.store(id, sig, addr)
	}); avg != 0 {
		t.Fatalf("refill after reset allocates %.2f per op, want 0", avg)
	}
}

func TestRecoverSendersMatchesSerialAcrossGOMAXPROCS(t *testing.T) {
	resetSenderCache(t, 4096)
	txs := make([]*Transaction, 24)
	for i := range txs {
		txs[i] = signedTx(t, keys.Deterministic(uint64(i%5+1)), uint64(i))
	}
	// One duplicate pointer and one corrupted signature.
	txs[7] = txs[3]
	txs[11].Sig.S = []byte{9}

	want := make([]hashing.Address, len(txs))
	wantErr := make([]bool, len(txs))
	for i, tx := range txs {
		// Fresh copies strip memos so every mode does the same work.
		c := *tx
		c.verifiedID = hashing.Hash{}
		addr, err := c.Sender()
		want[i], wantErr[i] = addr, err != nil
	}

	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		SetSenderCacheCapacity(4096) // clear between rounds
		stripped := make([]*Transaction, len(txs))
		fresh := make(map[*Transaction]*Transaction)
		for i, tx := range txs {
			c, ok := fresh[tx]
			if !ok {
				cc := *tx
				cc.verifiedID = hashing.Hash{}
				c = &cc
				fresh[tx] = c
			}
			stripped[i] = c
		}
		prev := runtime.GOMAXPROCS(procs)
		addrs, errs := RecoverSenders(stripped)
		runtime.GOMAXPROCS(prev)
		for i := range txs {
			if addrs[i] != want[i] || (errs[i] != nil) != wantErr[i] {
				t.Fatalf("GOMAXPROCS=%d index %d: got (%s, %v), want (%s, err=%v)",
					procs, i, addrs[i], errs[i], want[i], wantErr[i])
			}
		}
	}
}

// sharedPoolWorkers is the size of keys.SharedPool: creating the pool here,
// at package init, sizes it to the process's GOMAXPROCS before any test
// changes that.
var sharedPoolWorkers = func() int {
	keys.SharedPool()
	return runtime.GOMAXPROCS(0)
}()

// TestRecoverSendersCachedBlockSkipsPool holds every shared crypto worker
// and requires a block of consensus-decoded copies, all in the sender cache,
// to recover anyway: cache hits resolve inline and never queue behind the
// pool's backlog of client signatures. Each transaction consults the cache
// exactly once.
func TestRecoverSendersCachedBlockSkipsPool(t *testing.T) {
	resetSenderCache(t, 4096)
	block := make([]*Transaction, 100)
	for i := range block {
		signed := signedTx(t, keys.Deterministic(uint64(i%7+1)), uint64(i)) // Sign seeds the cache
		c, err := DecodeTransaction(signed.Encode())
		if err != nil {
			t.Fatal(err)
		}
		block[i] = c
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

	before := ReadSenderCacheStats()
	var addrs []hashing.Address
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		addrs, errs = RecoverSenders(block)
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
		t.Fatal("RecoverSenders waited on the crypto pool for a block of cache hits")
	}
	after := ReadSenderCacheStats()
	if after.Hits != before.Hits+100 || after.Misses != before.Misses {
		t.Fatalf("want +100 hits, +0 misses: before %+v after %+v", before, after)
	}
	for i, tx := range block {
		if errs[i] != nil || addrs[i] != tx.From {
			t.Fatalf("index %d: got (%s, %v), want (%s, nil)", i, addrs[i], errs[i], tx.From)
		}
	}
}

// TestRecoverSendersMixedBlockMatchesSerial runs a block of cached, uncached
// and one forged transaction through RecoverSenders at GOMAXPROCS 1, 2 and
// NumCPU and requires exactly the addresses and errors of a serial Sender
// loop, with one cache miss per uncached transaction and one hit per cached
// one.
func TestRecoverSendersMixedBlockMatchesSerial(t *testing.T) {
	resetSenderCache(t, 4096)
	const n, forgedAt = 40, 13
	encoded := make([][]byte, n)
	for i := range encoded {
		encoded[i] = signedTx(t, keys.Deterministic(uint64(i%5+1)), uint64(i)).Encode()
	}
	// A genuine signature on altered content: uncached, and it fails.
	forged, err := DecodeTransaction(encoded[forgedAt])
	if err != nil {
		t.Fatal(err)
	}
	forged.Value = u256.FromUint64(1 << 40)
	encoded[forgedAt] = forged.Encode()
	cached := func(i int) bool { return i%3 == 0 }
	wantHits := uint64(0)
	for i := range encoded {
		if cached(i) {
			wantHits++
		}
	}

	decode := func(b []byte) *Transaction {
		tx, err := DecodeTransaction(b)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	// fresh decodes a new copy of the block, with exactly the cached
	// subset's signatures verified before (on other copies).
	fresh := func() []*Transaction {
		SetSenderCacheCapacity(4096)
		txs := make([]*Transaction, n)
		for i, b := range encoded {
			if cached(i) {
				if _, err := decode(b).Sender(); err != nil {
					t.Fatal(err)
				}
			}
			txs[i] = decode(b)
		}
		return txs
	}

	ref := fresh()
	want := make([]hashing.Address, n)
	wantErr := make([]string, n)
	for i, tx := range ref {
		addr, err := tx.Sender()
		want[i], wantErr[i] = addr, fmt.Sprint(err)
	}
	if wantErr[forgedAt] == "<nil>" {
		t.Fatal("the forged transaction must fail the serial loop")
	}

	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		txs := fresh()
		before := ReadSenderCacheStats()
		prev := runtime.GOMAXPROCS(procs)
		addrs, errs := RecoverSenders(txs)
		runtime.GOMAXPROCS(prev)
		after := ReadSenderCacheStats()
		for i := range txs {
			if addrs[i] != want[i] || fmt.Sprint(errs[i]) != wantErr[i] {
				t.Fatalf("GOMAXPROCS=%d index %d: got (%s, %v), want (%s, %s)",
					procs, i, addrs[i], errs[i], want[i], wantErr[i])
			}
		}
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != wantHits || misses != n-wantHits {
			t.Fatalf("GOMAXPROCS=%d: %d hits, %d misses; want %d, %d", procs, hits, misses, wantHits, n-wantHits)
		}
	}
}

func TestSignOnMatchesInlineSign(t *testing.T) {
	resetSenderCache(t, 64)
	kp := keys.Deterministic(3)
	inline := signedTx(t, kp, 5)

	deferred := &Transaction{
		ChainID:  1,
		Nonce:    5,
		Kind:     TxCall,
		To:       hashing.AddressFromBytes([]byte{0x07}),
		Value:    u256.FromUint64(6),
		GasLimit: 21_000,
		GasPrice: u256.FromUint64(2),
	}
	deferred.SignOn(kp, nil)
	// The id is fixed before the signature lands: everything the simulation
	// orders on is already determined.
	if deferred.ID() != inline.ID() {
		t.Fatal("SignOn must fix the same id as Sign before the signature lands")
	}
	if err := deferred.WaitSig(); err != nil {
		t.Fatal(err)
	}
	if err := deferred.WaitSig(); err != nil {
		t.Fatal("WaitSig must be idempotent")
	}
	if addr, err := deferred.Sender(); err != nil || addr != kp.Address() {
		t.Fatalf("deferred signature invalid: %s %v", addr, err)
	}
	// A decoded copy hits the cache exactly like the inline-signed path.
	c, err := DecodeTransaction(deferred.Encode())
	if err != nil {
		t.Fatal(err)
	}
	before := ReadSenderCacheStats()
	if _, err := c.Sender(); err != nil {
		t.Fatal(err)
	}
	if after := ReadSenderCacheStats(); after.Hits != before.Hits+1 {
		t.Fatal("SignOn must seed the sender cache")
	}
}
