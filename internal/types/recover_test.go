package types

import (
	"bytes"
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

// TestSenderCacheReplayedSignatureOnDifferentPayload holds Sender to the
// content and the key: a genuine signature grafted onto other content fails
// verification, and another key's signature on the same content fails the
// From check, even after the genuine transaction verified.
func TestSenderCacheReplayedSignatureOnDifferentPayload(t *testing.T) {
	kp := keys.Deterministic(1)
	tx := signedTx(t, kp, 0)
	if _, err := tx.Sender(); err != nil {
		t.Fatal(err)
	}

	// Graft the genuine signature onto different content: the id changes,
	// and full verification must reject it.
	forged, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	forged.Value = u256.FromUint64(1 << 40)
	if forged, err = DecodeTransaction(forged.Encode()); err != nil { // as the altered bytes arrive
		t.Fatal(err)
	}
	if _, err := forged.Sender(); err == nil {
		t.Fatal("replayed signature on altered payload must fail verification")
	}

	// The same content signed by another key recovers to that key, which is
	// not From.
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

func TestRecoverSendersMatchesSerialAcrossGOMAXPROCS(t *testing.T) {
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
// and requires a block of objects that already verified — as a proposer
// applies its own proposal: signed here, or decoded and checked by Sender —
// to recover anyway: memoized senders resolve inline and never queue behind
// the pool's backlog of client signatures.
func TestRecoverSendersCachedBlockSkipsPool(t *testing.T) {
	block := make([]*Transaction, 100)
	for i := range block {
		signed := signedTx(t, keys.Deterministic(uint64(i%7+1)), uint64(i)) // Sign sets the memo
		if i%2 == 1 {
			c, err := DecodeTransaction(signed.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Sender(); err != nil { // a full verification sets the memo
				t.Fatal(err)
			}
			signed = c
		}
		block[i] = signed
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
		t.Fatal("RecoverSenders waited on the crypto pool for a block of verified objects")
	}
	for i, tx := range block {
		if errs[i] != nil || addrs[i] != tx.From {
			t.Fatalf("index %d: got (%s, %v), want (%s, nil)", i, addrs[i], errs[i], tx.From)
		}
	}
}

// TestRecoverSendersMixedBlockMatchesSerial runs a block of memoized
// (already verified), fresh and one forged transaction through
// RecoverSenders at GOMAXPROCS 1, 2 and NumCPU and requires exactly the
// addresses and errors of a serial Sender loop, and afterwards a memo on
// every transaction that recovered and on none that failed.
func TestRecoverSendersMixedBlockMatchesSerial(t *testing.T) {
	const n, forgedAt = 40, 13
	encoded := make([][]byte, n)
	for i := range encoded {
		encoded[i] = signedTx(t, keys.Deterministic(uint64(i%5+1)), uint64(i)).Encode()
	}
	// A genuine signature on altered content: it fails.
	forged, err := DecodeTransaction(encoded[forgedAt])
	if err != nil {
		t.Fatal(err)
	}
	forged.Value = u256.FromUint64(1 << 40)
	encoded[forgedAt] = forged.Encode()
	memoized := func(i int) bool { return i%3 == 0 && i != forgedAt }

	decode := func(b []byte) *Transaction {
		tx, err := DecodeTransaction(b)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	// fresh decodes a new copy of the block, with exactly the memoized
	// subset's signatures verified before on the same objects.
	fresh := func() []*Transaction {
		txs := make([]*Transaction, n)
		for i, b := range encoded {
			txs[i] = decode(b)
			if memoized(i) {
				if _, err := txs[i].Sender(); err != nil {
					t.Fatal(err)
				}
			}
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
		prev := runtime.GOMAXPROCS(procs)
		addrs, errs := RecoverSenders(txs)
		runtime.GOMAXPROCS(prev)
		for i, tx := range txs {
			if addrs[i] != want[i] || fmt.Sprint(errs[i]) != wantErr[i] {
				t.Fatalf("GOMAXPROCS=%d index %d: got (%s, %v), want (%s, %s)",
					procs, i, addrs[i], errs[i], want[i], wantErr[i])
			}
			if memo := tx.verifiedID == tx.ID(); memo != (errs[i] == nil) {
				t.Fatalf("GOMAXPROCS=%d index %d: memo set %v after error %v", procs, i, memo, errs[i])
			}
		}
	}
}

func TestSignOnMatchesInlineSign(t *testing.T) {
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
	// The signature itself is the inline path's (RFC 6979): a decoded copy,
	// with no memo, verifies to the same sender through full ECDSA.
	c, err := DecodeTransaction(deferred.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if addr, err := c.Sender(); err != nil || addr != kp.Address() {
		t.Fatalf("decoded copy of the deferred signature: %s %v", addr, err)
	}
	if !bytes.Equal(deferred.Encode(), inline.Encode()) {
		t.Fatal("SignOn and Sign must produce the same signed bytes")
	}
}
