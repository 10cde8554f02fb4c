package txpool

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/types"
)

func signedTx(t *testing.T, kp *keys.KeyPair, nonce uint64) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		ChainID:  1,
		Nonce:    nonce,
		Kind:     types.TxCall,
		To:       hashing.AddressFromBytes([]byte{0x01}),
		GasLimit: 21000,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

// signedTxTo is signedTx with a distinct destination, for building two
// different transactions that share a sender and nonce.
func signedTxTo(t *testing.T, kp *keys.KeyPair, nonce uint64, to byte) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		ChainID:  1,
		Nonce:    nonce,
		Kind:     types.TxCall,
		To:       hashing.AddressFromBytes([]byte{to}),
		GasLimit: 21000,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func zeroNonce(hashing.Address) uint64 { return 0 }

func TestAddAndBatchFIFO(t *testing.T) {
	p := New(1, 100)
	k1, k2 := keys.Deterministic(1), keys.Deterministic(2)
	tx1 := signedTx(t, k1, 0)
	tx2 := signedTx(t, k2, 0)
	for _, tx := range []*types.Transaction{tx1, tx2} {
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	batch := p.NextBatch(10, zeroNonce)
	if len(batch) != 2 || batch[0].ID() != tx1.ID() || batch[1].ID() != tx2.ID() {
		t.Fatal("batch must preserve FIFO order")
	}
	// Selection must not consume: the txs stay pending (and deduplicated)
	// until the block that includes them commits, so a failed consensus
	// round cannot lose them.
	if p.Len() != 2 {
		t.Fatalf("pool must keep proposed txs, len = %d", p.Len())
	}
	if err := p.Add(tx1); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("proposed tx must stay deduplicated, got %v", err)
	}
	for _, tx := range batch {
		p.Remove(tx.ID())
	}
	if p.Len() != 0 {
		t.Fatal("commit-time removal must drain the pool")
	}
}

func TestDuplicateRejected(t *testing.T) {
	p := New(1, 100)
	tx := signedTx(t, keys.Deterministic(1), 0)
	if err := p.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
}

func TestWrongChainRejected(t *testing.T) {
	p := New(2, 100)
	tx := signedTx(t, keys.Deterministic(1), 0)
	if err := p.Add(tx); !errors.Is(err, types.ErrTxChainID) {
		t.Fatalf("want ErrTxChainID, got %v", err)
	}
}

func TestPoolLimit(t *testing.T) {
	p := New(1, 1)
	if err := p.Add(signedTx(t, keys.Deterministic(1), 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(signedTx(t, keys.Deterministic(2), 0)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("want ErrPoolFull, got %v", err)
	}
}

func TestNonceSequencing(t *testing.T) {
	p := New(1, 100)
	kp := keys.Deterministic(1)
	// Enqueue out of order: nonce 1 then nonce 0.
	tx1 := signedTx(t, kp, 1)
	tx0 := signedTx(t, kp, 0)
	if err := p.Add(tx1); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx0); err != nil {
		t.Fatal(err)
	}
	batch := p.NextBatch(10, zeroNonce)
	// tx1 is skipped on the first scan (nonce gap at scan time) because it
	// precedes tx0 in FIFO order; tx0 runs now, tx1 next block.
	if len(batch) != 1 || batch[0].Nonce != 0 {
		t.Fatalf("batch = %v", batch)
	}
	p.Remove(batch[0].ID()) // block with tx0 commits
	batch = p.NextBatch(10, func(hashing.Address) uint64 { return 1 })
	if len(batch) != 1 || batch[0].Nonce != 1 {
		t.Fatalf("second batch = %v", batch)
	}
	p.Remove(batch[0].ID())
	if p.Len() != 0 {
		t.Fatal("pool must drain once both blocks commit")
	}
}

func TestBatchRespectsMax(t *testing.T) {
	p := New(1, 100)
	kp := keys.Deterministic(1)
	for n := uint64(0); n < 5; n++ {
		if err := p.Add(signedTx(t, kp, n)); err != nil {
			t.Fatal(err)
		}
	}
	batch := p.NextBatch(3, zeroNonce)
	if len(batch) != 3 {
		t.Fatalf("batch = %d", len(batch))
	}
	if p.Len() != 5 {
		t.Fatalf("pool must keep everything until commit, len = %d", p.Len())
	}
	for _, tx := range batch {
		p.Remove(tx.ID())
	}
	if p.Len() != 2 {
		t.Fatalf("left = %d", p.Len())
	}
}

func TestRemove(t *testing.T) {
	p := New(1, 100)
	tx := signedTx(t, keys.Deterministic(1), 0)
	if err := p.Add(tx); err != nil {
		t.Fatal(err)
	}
	p.Remove(tx.ID())
	if p.Len() != 0 || isPending(p, tx.ID()) {
		t.Fatal("remove must drop the tx")
	}
	p.Remove(tx.ID()) // idempotent
}

// isPending reports whether the transaction with the given id is pending.
func isPending(p *Pool, id hashing.Hash) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.pending[id]
	return ok
}

// syntheticPool builds a pool of n pending transactions with distinct ids,
// senders drawn at random from a few accounts and consecutive nonces per
// sender. It bypasses Add: eviction and selection never read signatures.
func syntheticPool(rng *rand.Rand, n, senders int) *Pool {
	p := New(1, n)
	next := make([]uint64, senders)
	for i := 0; i < n; i++ {
		s := rng.Intn(senders)
		tx := &types.Transaction{ChainID: 1, Nonce: next[s], Kind: types.TxCall}
		next[s]++
		var id hashing.Hash
		binary.BigEndian.PutUint64(id[:], uint64(i)+1)
		p.pending[id] = struct{}{}
		p.queue = append(p.queue, &entry{tx: tx, sender: hashing.Address{byte(s)}, id: id})
	}
	return p
}

// TestRemoveManyMatchesSingleRemovals checks that one Remove of a block's
// ids — repeats and ids never pending included — leaves exactly what that
// many single-id removals leave: the same survivors in the same FIFO order,
// Len, which ids are pending, and the next NextBatch. Each pool takes two
// blocks, so the reused scratch set is exercised too.
func TestRemoveManyMatchesSingleRemovals(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, senders := 1+rng.Intn(300), 1+rng.Intn(8)
		many := syntheticPool(rand.New(rand.NewSource(seed)), n, senders)
		single := syntheticPool(rand.New(rand.NewSource(seed)), n, senders)
		all := make([]hashing.Hash, n)
		for i, e := range many.queue {
			all[i] = e.id
		}
		for round := 0; round < 2; round++ {
			ids := []hashing.Hash{{0xff}} // never pending
			for k := rng.Intn(n + 1); k > 0; k-- {
				ids = append(ids, all[rng.Intn(n)])
			}
			many.Remove(ids...)
			for _, id := range ids {
				single.Remove(id)
			}
			if many.Len() != single.Len() {
				t.Fatalf("seed %d round %d: Len %d, single-id removals leave %d", seed, round, many.Len(), single.Len())
			}
			for i := range many.queue {
				if many.queue[i].id != single.queue[i].id {
					t.Fatalf("seed %d round %d: survivor %d differs", seed, round, i)
				}
			}
			for _, id := range all {
				if isPending(many, id) != isPending(single, id) {
					t.Fatalf("seed %d round %d: whether %s is pending differs", seed, round, id)
				}
			}
		}
		idOf := make(map[*types.Transaction]hashing.Hash)
		for _, p := range []*Pool{many, single} {
			for _, e := range p.queue {
				idOf[e.tx] = e.id
			}
		}
		got, want := many.NextBatch(n, zeroNonce), single.NextBatch(n, zeroNonce)
		if len(got) != len(want) {
			t.Fatalf("seed %d: next batch %d txs, single-id removals %d", seed, len(got), len(want))
		}
		for i := range want {
			if idOf[got[i]] != idOf[want[i]] {
				t.Fatalf("seed %d: next batch position %d differs", seed, i)
			}
		}
	}
}

// BenchmarkRemoveBlock evicts a committed 5 000-transaction block from the
// front of a 50 000-deep pool, the shape of rpc_submit_sat's replay check.
func BenchmarkRemoveBlock(b *testing.B) {
	const pending, block = 50_000, 5_000
	ids := make([]hashing.Hash, block)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := syntheticPool(rand.New(rand.NewSource(1)), pending, 64)
		for j := range ids {
			ids[j] = p.queue[j].id
		}
		b.StartTimer()
		p.Remove(ids...)
	}
}

// TestSameNonceCompetitorSurvivesFailedRound pins the select-don't-consume
// promise for competing same-nonce transactions: selecting one of them for a
// proposal must not evict the other as "stale" against the *speculative*
// nonce advanced during that same pass. If the proposed block then fails
// (message loss), the competitor must still be in the pool and proposable.
func TestSameNonceCompetitorSurvivesFailedRound(t *testing.T) {
	p := New(1, 100)
	kp := keys.Deterministic(1)
	a := signedTxTo(t, kp, 0, 0x01)
	b := signedTxTo(t, kp, 0, 0x02) // same sender, same nonce, different tx
	for _, tx := range []*types.Transaction{a, b} {
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	batch := p.NextBatch(10, zeroNonce)
	if len(batch) != 1 || batch[0].ID() != a.ID() {
		t.Fatalf("first proposal must select exactly the FIFO-first competitor, got %d", len(batch))
	}
	// The consensus round fails: no block commits, nothing is removed. The
	// losing competitor must not have been destroyed.
	if !isPending(p, b.ID()) || p.Len() != 2 {
		t.Fatalf("competing same-nonce tx was evicted on a failed round (len=%d, pending=%v)",
			p.Len(), isPending(p, b.ID()))
	}
	// The next round can still propose either: drop a (say, a peer saw it
	// fail admission elsewhere) and b must be selectable at the same nonce.
	p.Remove(a.ID())
	batch = p.NextBatch(10, zeroNonce)
	if len(batch) != 1 || batch[0].ID() != b.ID() {
		t.Fatal("surviving competitor must be proposable after the failed round")
	}
	// Once the account's committed nonce really advances, both are stale and
	// eviction (against committed state) kicks in.
	p.Remove(b.ID())
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	if got := p.NextBatch(10, func(hashing.Address) uint64 { return 1 }); len(got) != 0 {
		t.Fatalf("stale tx below committed nonce must not be proposed, got %d", len(got))
	}
	if p.Len() != 0 {
		t.Fatalf("stale tx below committed nonce must be evicted, len = %d", p.Len())
	}
}

// TestDuplicateBeatsPoolFull pins Add's check order: an idempotent
// resubmission of an already-pending transaction reports ErrDuplicate even
// when the pool is at capacity (it consumes no slot), while a genuinely new
// transaction at capacity reports ErrPoolFull.
func TestDuplicateBeatsPoolFull(t *testing.T) {
	p := New(1, 1)
	pending := signedTx(t, keys.Deterministic(1), 0)
	if err := p.Add(pending); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(pending); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("resubmission at full pool: want ErrDuplicate, got %v", err)
	}
	if err := p.Add(signedTx(t, keys.Deterministic(2), 0)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("new tx at full pool: want ErrPoolFull, got %v", err)
	}
	// And with free capacity the duplicate is still a duplicate.
	p2 := New(1, 2)
	if err := p2.Add(pending); err != nil {
		t.Fatal(err)
	}
	if err := p2.Add(pending); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("resubmission below capacity: want ErrDuplicate, got %v", err)
	}
}

func TestSequentialNoncesInOneBatch(t *testing.T) {
	p := New(1, 100)
	kp := keys.Deterministic(1)
	for n := uint64(0); n < 3; n++ {
		if err := p.Add(signedTx(t, kp, n)); err != nil {
			t.Fatal(err)
		}
	}
	batch := p.NextBatch(10, zeroNonce)
	if len(batch) != 3 {
		t.Fatalf("batch = %d, want full nonce run", len(batch))
	}
	for i, tx := range batch {
		if tx.Nonce != uint64(i) {
			t.Fatalf("batch order broken at %d", i)
		}
	}
}

// legacyNextBatch is the first NextBatch selection loop (two maps, no
// scratch reuse), kept verbatim as the reference for the bit-exactness
// regression below. It
// must never be called on a pool the test still needs: it evicts stale
// entries just like the real implementation.
func legacyNextBatch(p *Pool, max int, nonceOf func(hashing.Address) uint64) []*types.Transaction {
	if max <= 0 {
		return nil
	}
	batch := make([]*types.Transaction, 0, max)
	committed := make(map[hashing.Address]uint64)
	next := make(map[hashing.Address]uint64)
	keep := p.queue[:0]
	for _, e := range p.queue {
		base, seen := committed[e.sender]
		if !seen {
			base = nonceOf(e.sender)
			committed[e.sender] = base
		}
		if e.tx.Nonce < base {
			delete(p.pending, e.id)
			continue
		}
		keep = append(keep, e)
		want, selecting := next[e.sender]
		if !selecting {
			want = base
		}
		if len(batch) >= max || e.tx.Nonce != want {
			continue
		}
		batch = append(batch, e.tx)
		next[e.sender] = want + 1
	}
	p.queue = keep
	return batch
}

// TestNextBatchPreservesFIFO builds two identical pools — stale entries,
// nonce gaps, competing same-nonce transactions, interleaved senders, a
// max cutoff mid-stream — and checks that NextBatch reproduces the legacy
// flat FIFO batch bit-exactly: same transactions, same order, same
// surviving queue.
func TestNextBatchPreservesFIFO(t *testing.T) {
	kps := []*keys.KeyPair{keys.Deterministic(1), keys.Deterministic(2), keys.Deterministic(3)}
	nonceOf := func(a hashing.Address) uint64 {
		if a == kps[2].Address() {
			return 2 // sender 3's nonces 0 and 1 are stale
		}
		return 0
	}
	build := func() *Pool {
		p := New(1, 100)
		admit := func(tx *types.Transaction) {
			if err := p.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
		// Interleaved: stale entries, a nonce gap for sender 2 (nonce 2
		// before nonce 1), and a competing same-nonce pair for sender 1.
		admit(signedTx(t, kps[2], 0)) // stale, evicted
		admit(signedTx(t, kps[0], 0))
		admit(signedTx(t, kps[1], 0))
		admit(signedTx(t, kps[2], 2))
		admit(signedTx(t, kps[0], 1))
		admit(signedTx(t, kps[2], 1)) // stale, evicted
		admit(signedTx(t, kps[1], 2)) // gap: skipped this round
		admit(signedTxTo(t, kps[0], 2, 0x07))
		admit(signedTxTo(t, kps[0], 2, 0x08)) // competitor, first-come wins
		admit(signedTx(t, kps[1], 1))
		admit(signedTx(t, kps[2], 3))
		admit(signedTx(t, kps[0], 3)) // over the max cutoff below
		return p
	}

	for _, max := range []int{7, 100, 3, 0} {
		ref := build()
		want := legacyNextBatch(ref, max, nonceOf)

		p := build()
		got := p.NextBatch(max, nonceOf)
		if len(got) != len(want) {
			t.Fatalf("max=%d: NextBatch %d txs, legacy %d", max, len(got), len(want))
		}
		for i := range want {
			if got[i].ID() != want[i].ID() {
				t.Fatalf("max=%d: NextBatch position %d diverges", max, i)
			}
		}
		if p.Len() != ref.Len() {
			t.Fatalf("max=%d: surviving queue %d vs legacy %d", max, p.Len(), ref.Len())
		}
	}
}
