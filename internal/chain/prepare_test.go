package chain

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scmove/internal/core"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/txpool"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// Source chains of the Move2 tests: one of each tree kind, p = 1.
var (
	mptSource  = core.ChainParams{ID: 10, TreeKind: trie.KindMPT, ConfirmationDepth: 1}
	iavlSource = core.ChainParams{ID: 11, TreeKind: trie.KindIAVL, ConfirmationDepth: 1}
)

// stopCode does nothing, so moveFinish succeeds; revertCode reverts, so
// moveFinish fails and the whole Move2 rolls back.
var (
	stopCode   = []byte{0x00}
	revertCode = asm.MustAssemble("PUSH1 0 PUSH1 0 REVERT")
)

// movedContract is one contract a source locks towards a target.
type movedContract struct {
	code  []byte
	slots int
}

// lockedPayloads commits, in a fresh state of src's kind, one contract per
// spec, each with spec.slots storage slots and locked towards target, and
// returns their Move2 payloads against that state's root at height 1.
func lockedPayloads(t testing.TB, src core.ChainParams, target hashing.ChainID, specs ...movedContract) ([]*types.Move2Payload, hashing.Hash) {
	t.Helper()
	db, err := state.NewDB(src.ID, src.TreeKind)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]hashing.Address, len(specs))
	for i, spec := range specs {
		addrs[i] = hashing.AddressFromBytes([]byte{0xc0, byte(i)})
		db.CreateContract(addrs[i], spec.code)
		for j := 0; j < spec.slots; j++ {
			var key [32]byte
			key[0], key[30], key[31] = 0x01, byte(j>>8), byte(j)
			db.SetStorage(addrs[i], key, hashing.Sum(key[:]))
		}
		db.SetLocation(addrs[i], target)
		db.SetMoveNonce(addrs[i], 1)
	}
	root := db.Commit()
	payloads := make([]*types.Move2Payload, len(specs))
	for i, a := range addrs {
		if payloads[i], err = core.BuildMoveProof(db, a, 1); err != nil {
			t.Fatal(err)
		}
	}
	return payloads, root
}

// trustSource makes c's light client trust root as src's state at height 1.
func trustSource(t testing.TB, c *Chain, src core.ChainParams, root hashing.Hash) {
	t.Helper()
	head := 1 + src.ConfirmationDepth
	headers := []*types.Header{{ChainID: src.ID, Height: 1, StateRoot: root}}
	for h := uint64(2); h <= head; h++ {
		headers = append(headers, &types.Header{ChainID: src.ID, Height: h})
	}
	if err := c.Headers().Update(src.ID, headers, head); err != nil {
		t.Fatal(err)
	}
}

// move2Tx signs a Move2 transaction carrying p.
func move2Tx(t testing.TB, kp *keys.KeyPair, chainID hashing.ChainID, nonce uint64, p *types.Move2Payload) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		ChainID:  chainID,
		Nonce:    nonce,
		Kind:     types.TxMove2,
		GasLimit: 30_000_000,
		GasPrice: u256.FromUint64(2),
		Move2:    p,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

// wireCopy is tx as a consensus commit hands it to ApplyBlock: decoded from
// its encoding, sharing nothing with tx.
func wireCopy(t testing.TB, tx *types.Transaction) *types.Transaction {
	t.Helper()
	dec, err := types.DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// tampered returns p with its own copy of the storage, edited by edit.
func tampered(p *types.Move2Payload, edit func(s []types.StorageEntry) []types.StorageEntry) *types.Move2Payload {
	cp := *p
	cp.Storage = edit(slices.Clone(p.Storage))
	return &cp
}

// preparedCount is the size of c's prepared-Move2 table.
func preparedCount(c *Chain) int {
	c.prepMu.Lock()
	defer c.prepMu.Unlock()
	return len(c.prep)
}

// waitPrepared waits for every preparation in c's table to finish.
func waitPrepared(c *Chain) {
	c.prepMu.Lock()
	running := make([]*move2Prep, 0, len(c.prep))
	for _, e := range c.prep {
		running = append(running, e)
	}
	c.prepMu.Unlock()
	for _, e := range running {
		<-e.done
	}
}

// waitGoroutines waits up to a few seconds for the goroutine count to fall
// back to want: a goroutine is still counted for a moment after the
// WaitGroup it signals has released its waiter.
func waitGoroutines(t testing.TB, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the chains existed", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestPreparedMove2MatchesInline is the differential of the two ways a Move2
// reaches its storage work: prepared at pool admission, off the event loop,
// or computed inline at apply because the chain's pool never saw it. One
// chain admits every transaction through SubmitTx, the other is only handed
// the blocks, both as wire copies; the receipts (status, gas, error text,
// logs), state roots and header hashes must agree block for block, for
// MPT → IAVL, IAVL → MPT and IAVL → IAVL, on valid payloads and on every
// failure class — and where two checks fail, the same one must win.
func TestPreparedMove2MatchesInline(t *testing.T) {
	for _, pair := range []struct {
		name string
		src  core.ChainParams
		dst  Config
	}{
		{"mpt-iavl", mptSource, burrowConfig(2)},
		{"iavl-mpt", iavlSource, ethConfig(1)},
		{"iavl-iavl", iavlSource, burrowConfig(2)},
	} {
		t.Run(pair.name, func(t *testing.T) {
			kp := keys.Deterministic(1)
			// 200 entries split across two goroutines when the kinds differ,
			// 70 are prepared on one, 10 are computed at apply on both chains.
			payloads, root := lockedPayloads(t, pair.src, pair.dst.ChainID,
				movedContract{stopCode, 200}, movedContract{revertCode, 70}, movedContract{stopCode, 10})
			valid, reverting, small := payloads[0], payloads[1], payloads[2]
			zero := func(s []types.StorageEntry) []types.StorageEntry { s[6].Value = [32]byte{}; return s }
			swap := func(s []types.StorageEntry) []types.StorageEntry { s[3], s[4] = s[4], s[3]; return s }
			cases := []struct {
				name    string
				payload *types.Move2Payload
				err     string // a substring of the receipt's error; "" is success
			}{
				{"zero value", tampered(valid, zero), "zero-valued storage entry"},
				{"out of order", tampered(valid, swap), "not strictly ascending"},
				{"duplicate key", tampered(valid, func(s []types.StorageEntry) []types.StorageEntry {
					return slices.Insert(s, 5, s[5])
				}), "not strictly ascending"},
				{"zero value and out of order", tampered(valid, func(s []types.StorageEntry) []types.StorageEntry {
					return zero(swap(s))
				}), "zero-valued storage entry"},
				{"wrong root", tampered(valid, func(s []types.StorageEntry) []types.StorageEntry {
					s[7].Value[0] ^= 1
					return s
				}), "rebuilt root"},
				{"moveFinish reverts", reverting, "moveFinish"},
				{"small payload", small, ""},
				{"valid", valid, ""},
				{"replayed nonce", valid, "stale move nonce"},
				{"wrong root and replayed nonce", tampered(valid, func(s []types.StorageEntry) []types.StorageEntry {
					return s[1:]
				}), "rebuilt root"},
			}

			prep := newChain(t, pair.dst, []core.ChainParams{pair.src}, kp)
			inline := newChain(t, pair.dst, []core.ChainParams{pair.src}, kp)
			trustSource(t, prep, pair.src, root)
			trustSource(t, inline, pair.src, root)
			proposer := ProposerAddress(pair.dst.ChainID, 0)
			for i, tc := range cases {
				tx := move2Tx(t, kp, pair.dst.ChainID, uint64(i), tc.payload)
				if err := prep.SubmitTx(tx); err != nil {
					t.Fatalf("%s: admission: %v", tc.name, err)
				}
				want := 0
				if len(tc.payload.Storage) >= prepareMin {
					want = 1
				}
				if got := preparedCount(prep); got != want {
					t.Fatalf("%s: %d prepared entries after admitting %d slots, want %d",
						tc.name, got, len(tc.payload.Storage), want)
				}
				bp, rp := prep.ApplyBlock([]*types.Transaction{wireCopy(t, tx)}, uint64(100+i), proposer)
				bi, ri := inline.ApplyBlock([]*types.Transaction{wireCopy(t, tx)}, uint64(100+i), proposer)
				if n := preparedCount(prep); n != 0 {
					t.Fatalf("%s: %d prepared entries left after the block", tc.name, n)
				}
				if !reflect.DeepEqual(rp, ri) {
					t.Fatalf("%s: prepared receipt %+v, inline %+v", tc.name, rp[0], ri[0])
				}
				if bp.Header.Hash() != bi.Header.Hash() || prep.db.Root() != inline.db.Root() {
					t.Fatalf("%s: prepared and inline chains diverge", tc.name)
				}
				if got := rp[0].Err; tc.err == "" && !rp[0].Succeeded() || !strings.Contains(got, tc.err) {
					t.Fatalf("%s: receipt error %q, want one containing %q", tc.name, got, tc.err)
				}
			}
		})
	}
}

// TestPreparedMove2Lifetime: entries leave the table when their transaction
// leaves the pool unapplied, not only when a block takes them, and Close
// waits out every preparation: a Move2 evicted as stale, because a transfer
// used its nonce, is forgotten at the next proposal, and Move2s that can
// never be included (a nonce gap) are dropped by Close, after which the
// goroutine count is back where it was before the chain existed.
func TestPreparedMove2Lifetime(t *testing.T) {
	keys.SharedPool() // the crypto workers live for the process
	base := runtime.NumGoroutine()
	kp := keys.Deterministic(1)
	payloads, root := lockedPayloads(t, mptSource, 2,
		movedContract{stopCode, 100}, movedContract{stopCode, 100}, movedContract{stopCode, 100})
	c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, kp)
	trustSource(t, c, mptSource, root)

	if err := c.SubmitTx(signedCall(t, kp, 2, 0, hashing.AddressFromBytes([]byte{1}), nil, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitTx(move2Tx(t, kp, 2, 0, payloads[0])); err != nil {
		t.Fatal(err)
	}
	gapped := []*types.Transaction{move2Tx(t, kp, 2, 7, payloads[1]), move2Tx(t, kp, 2, 8, payloads[2])}
	if errs := c.SubmitTxs(gapped); errs[0] != nil || errs[1] != nil {
		t.Fatalf("admission: %v", errs)
	}
	if n := preparedCount(c); n != 3 {
		t.Fatalf("%d prepared entries after admitting three Move2s", n)
	}
	if _, recs := c.ApplyBlock(c.ProposeBatch(), 10, ProposerAddress(2, 0)); len(recs) != 1 || !recs[0].Succeeded() {
		t.Fatalf("first block: %+v", recs)
	}
	if batch := c.ProposeBatch(); len(batch) != 0 {
		t.Fatalf("proposed %d transactions, want none", len(batch))
	}
	if n, pending := preparedCount(c), c.PendingTxs(); n != 2 || pending != 2 {
		t.Fatalf("after the stale Move2's eviction: %d prepared, %d pending; want 2 and 2", n, pending)
	}
	c.prepMu.Lock()
	left := make([]*move2Prep, 0, len(c.prep))
	for _, e := range c.prep {
		left = append(left, e)
	}
	c.prepMu.Unlock()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := preparedCount(c); n != 0 {
		t.Fatalf("%d prepared entries after Close", n)
	}
	for _, e := range left {
		select {
		case <-e.done:
		default:
			t.Fatal("Close returned with a preparation still running")
		}
	}
	waitGoroutines(t, base)
}

// TestConcurrentMove2Submission prepares Move2s submitted from several
// goroutines at once, through SubmitTx and SubmitTxs and each twice, while a
// drainer proposes and applies blocks; run it under -race (`make race`).
// Every Move2 must commit exactly once, and the table must end empty.
func TestConcurrentMove2Submission(t *testing.T) {
	const (
		goroutines = 4
		perSender  = 3
	)
	specs := make([]movedContract, goroutines*perSender)
	for i := range specs {
		specs[i] = movedContract{stopCode, 20 + 20*i} // split from 128 entries on
	}
	payloads, root := lockedPayloads(t, mptSource, 2, specs...)
	kps := make([]*keys.KeyPair, goroutines)
	for g := range kps {
		kps[g] = keys.Deterministic(uint64(500 + g))
	}
	c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, kps[0])
	for _, kp := range kps[1:] {
		c.StateDB().AddBalance(kp.Address(), u256.FromUint64(fund))
	}
	c.StateDB().Commit()
	trustSource(t, c, mptSource, root)
	txs := make([][]*types.Transaction, goroutines)
	for g, kp := range kps {
		for n := 0; n < perSender; n++ {
			txs[g] = append(txs[g], move2Tx(t, kp, 2, uint64(n), payloads[g*perSender+n]))
		}
	}

	var wg sync.WaitGroup
	for g := range txs {
		wg.Add(1)
		go func(batch []*types.Transaction, useBatch bool) {
			defer wg.Done()
			for _, tx := range batch {
				// The second submission is a duplicate while the first is
				// pending, or re-admitted once it committed and then evicted
				// as stale; it must never commit twice.
				for range 2 {
					var err error
					if useBatch {
						err = c.SubmitTxs([]*types.Transaction{tx})[0]
					} else {
						err = c.SubmitTx(tx)
					}
					if err != nil && !errors.Is(err, txpool.ErrDuplicate) {
						t.Errorf("submit: %v", err)
					}
				}
			}
		}(txs[g], g%2 == 1)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	committed := make(map[hashing.Hash]int)
	drain := func() {
		_, recs := c.ApplyBlock(c.ProposeBatch(), 10, ProposerAddress(2, 0))
		for _, rec := range recs {
			if !rec.Succeeded() {
				t.Fatalf("move2 failed: %s", rec.Err)
			}
			committed[rec.TxID]++
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			drain()
		}
	}
	for c.PendingTxs() > 0 {
		drain()
	}
	// A submission that lost the race to its own block inserts its entry
	// after the block took the table's; the next proposal drops it.
	c.ProposeBatch()
	for _, batch := range txs {
		for _, tx := range batch {
			if n := committed[tx.ID()]; n != 1 {
				t.Errorf("Move2 of %s committed %d times, want 1", tx.Move2.Contract, n)
			}
		}
	}
	if n := preparedCount(c); n != 0 {
		t.Fatalf("%d prepared entries left with the pool empty", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
