package chain

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"scmove/internal/core"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/trees"
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

// lockedSource commits, in a fresh state of src's kind, one contract per
// spec, each with spec.slots storage slots and locked towards target, and
// returns that state, whose root a Move2's proof at height 1 is against,
// and the contracts' addresses.
func lockedSource(t testing.TB, src core.ChainParams, target hashing.ChainID, specs ...movedContract) (*state.DB, []hashing.Address) {
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
	db.Commit()
	return db, addrs
}

// lockedPayloads is lockedSource's contracts' Move2 payloads at height 1,
// with the state root they are proven against.
func lockedPayloads(t testing.TB, src core.ChainParams, target hashing.ChainID, specs ...movedContract) ([]*types.Move2Payload, hashing.Hash) {
	t.Helper()
	db, addrs := lockedSource(t, src, target, specs...)
	payloads := make([]*types.Move2Payload, len(addrs))
	for i, a := range addrs {
		var err error
		if payloads[i], err = core.BuildMoveProof(db, a, 1); err != nil {
			t.Fatal(err)
		}
	}
	return payloads, db.Root()
}

// expect starts the preparation of p, a full payload that may be forged,
// as BuildMove2 does for a payload it built.
func expect(c *Chain, p *types.Move2Payload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prepare(p, len(p.Storage))
}

// prepared is c's untaken Move2 preparation, or nil.
func prepared(c *Chain) *move2Prep {
	c.prepMu.Lock()
	defer c.prepMu.Unlock()
	if c.prep == nil || c.prep.p == nil {
		return nil
	}
	return c.prep
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
	requireRoundTrip(t, dec, tx)
	return dec
}

// tampered returns p with its own copy of the storage, edited by edit.
func tampered(p *types.Move2Payload, edit func(s []types.StorageEntry) []types.StorageEntry) *types.Move2Payload {
	cp := *p
	cp.Storage = edit(slices.Clone(p.Storage))
	return &cp
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

// move2Pair is a source and a target of the Move2 differentials.
type move2Pair struct {
	name string
	src  core.ChainParams
	dst  Config
}

var (
	mptToIAVL  = move2Pair{"mpt-iavl", mptSource, burrowConfig(2)}
	iavlToMPT  = move2Pair{"iavl-mpt", iavlSource, ethConfig(1)}
	iavlToIAVL = move2Pair{"iavl-iavl", iavlSource, burrowConfig(2)}
)

// move2Case is one Move2 of the differentials, applied in a block of its own
// with the case's index as its nonce.
type move2Case struct {
	name    string
	payload *types.Move2Payload
	err     string // a substring of the receipt's error; "" is success
}

// move2Cases returns the differentials' Move2 sequence towards pair.dst,
// with the source root that makes its proofs valid: every failure class,
// two checks failing at once, a reverting moveFinish, and payloads of 200
// entries (split across two goroutines when the kinds differ), 70 (prepared
// on one) and 10 (below prepareMin: computed at apply on every chain).
func move2Cases(t *testing.T, pair move2Pair) ([]move2Case, hashing.Hash) {
	t.Helper()
	payloads, root := lockedPayloads(t, pair.src, pair.dst.ChainID,
		movedContract{stopCode, 200}, movedContract{revertCode, 70}, movedContract{stopCode, 10})
	valid, reverting, small := payloads[0], payloads[1], payloads[2]
	zero := func(s []types.StorageEntry) []types.StorageEntry { s[6].Value = [32]byte{}; return s }
	swap := func(s []types.StorageEntry) []types.StorageEntry { s[3], s[4] = s[4], s[3]; return s }
	return []move2Case{
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
	}, root
}

// requireSameBlocks applies tx, as wire copies, in one block on each chain
// and requires the receipts (status, gas, error text, logs), state roots and
// header hashes to agree, the receipt's error to be the case's, no
// preparation to be left untaken, and a Move2 that succeeded to read back on
// every chain (requireReadBack).
func requireSameBlocks(t *testing.T, tc move2Case, tx *types.Transaction, now uint64, chains ...*Chain) {
	t.Helper()
	var (
		first *types.Block
		recs  []*types.Receipt
	)
	for i, c := range chains {
		b, r := c.ApplyBlock([]*types.Transaction{wireCopy(t, tx)}, now, ProposerAddress(c.ChainID(), 0))
		if prepared(c) != nil {
			t.Fatalf("%s: chain %d has a preparation left after the block", tc.name, i)
		}
		if i == 0 {
			first, recs = b, r
			continue
		}
		if !reflect.DeepEqual(r, recs) {
			t.Fatalf("%s: chain %d receipt %+v, chain 0 %+v", tc.name, i, r[0], recs[0])
		}
		if b.Header.Hash() != first.Header.Hash() || c.db.Root() != chains[0].db.Root() {
			t.Fatalf("%s: chain %d diverges from chain 0", tc.name, i)
		}
	}
	if got := recs[0].Err; tc.err == "" && !recs[0].Succeeded() || !strings.Contains(got, tc.err) {
		t.Fatalf("%s: receipt error %q, want one containing %q", tc.name, got, tc.err)
	}
	if recs[0].Succeeded() {
		for _, c := range chains {
			requireReadBack(t, tc.name, c, tx.Move2)
		}
	}
}

// requireReadBack checks c's copy of a contract that a Move2 carrying p
// installed by a path that shares nothing with core.PrepareMove2, which
// both sides of a differential go through: the contract's storage root must
// be that of an empty tree of c's kind given one Set per payload entry, and
// every entry must read back through GetStorage.
func requireReadBack(t *testing.T, name string, c *Chain, p *types.Move2Payload) {
	t.Helper()
	want := trees.MustNew(c.cfg.TreeKind, 32)
	for _, e := range p.Storage {
		if err := want.Set(e.Key[:], e.Value[:]); err != nil {
			t.Fatal(err)
		}
	}
	if acct, _ := c.db.GetAccount(p.Contract); acct.StorageRoot != want.RootHash() {
		t.Fatalf("%s: chain %s installed storage root %s, a Set loop over the payload gives %s",
			name, c.ChainID(), acct.StorageRoot, want.RootHash())
	}
	for _, e := range p.Storage {
		if got := c.db.GetStorage(p.Contract, e.Key); got != e.Value {
			t.Fatalf("%s: chain %s reads slot %x as %x, the payload carries %x",
				name, c.ChainID(), e.Key, got, e.Value)
		}
	}
}

// TestPreparedMove2MatchesInline is the differential of the two ways a Move2
// reaches its storage work: prepared off the event loop from the moment a
// relayer builds the payload (BuildMove2, here on payloads it could not
// have built too), or computed inline at apply because nobody did. Neither
// chain's pool sees the transaction, as on a validator handed another's
// proposal: one chain prepares each payload, the other does not, and both are handed the blocks as wire copies.
// The receipts (status, gas, error text, logs), state roots and header
// hashes must agree block for block, for MPT → IAVL, IAVL → MPT and
// IAVL → IAVL, on valid payloads and on every failure class — and where two
// checks fail, the same one must win.
func TestPreparedMove2MatchesInline(t *testing.T) {
	for _, pair := range []move2Pair{mptToIAVL, iavlToMPT, iavlToIAVL} {
		t.Run(pair.name, func(t *testing.T) {
			kp := keys.Deterministic(1)
			cases, root := move2Cases(t, pair)
			prep := newChain(t, pair.dst, []core.ChainParams{pair.src}, kp)
			inline := newChain(t, pair.dst, []core.ChainParams{pair.src}, kp)
			trustSource(t, prep, pair.src, root)
			trustSource(t, inline, pair.src, root)
			for i, tc := range cases {
				tx := move2Tx(t, kp, pair.dst.ChainID, uint64(i), tc.payload)
				expect(prep, tc.payload)
				if got, want := prepared(prep) != nil, len(tc.payload.Storage) >= prepareMin; got != want {
					t.Fatalf("%s: prepared %v for %d slots, want %v", tc.name, got, len(tc.payload.Storage), want)
				}
				requireSameBlocks(t, tc, tx, uint64(100+i), prep, inline)
			}
		})
	}
}

// TestExpectedMove2MatchesInline extends the differential to pool
// admission, which prepares nothing: one chain prepares each payload and
// then admits the transaction, which must leave the preparation for the
// block; the other only admits it, which must prepare nothing. Both
// must agree block for block on every case of TestPreparedMove2MatchesInline.
func TestExpectedMove2MatchesInline(t *testing.T) {
	for _, pair := range []move2Pair{mptToIAVL, iavlToMPT, iavlToIAVL} {
		t.Run(pair.name, func(t *testing.T) {
			kp := keys.Deterministic(1)
			cases, root := move2Cases(t, pair)
			expected := newChain(t, pair.dst, []core.ChainParams{pair.src}, kp)
			admitted := newChain(t, pair.dst, []core.ChainParams{pair.src}, kp)
			trustSource(t, expected, pair.src, root)
			trustSource(t, admitted, pair.src, root)
			for i, tc := range cases {
				tx := move2Tx(t, kp, pair.dst.ChainID, uint64(i), tc.payload)
				expect(expected, tc.payload)
				want := len(tc.payload.Storage) >= prepareMin
				for _, c := range []*Chain{expected, admitted} {
					if err := c.SubmitTx(tx); err != nil {
						t.Fatalf("%s: admission: %v", tc.name, err)
					}
				}
				if got := prepared(expected) != nil; got != want {
					t.Fatalf("%s: prepared %v after admitting %d slots, want %v",
						tc.name, got, len(tc.payload.Storage), want)
				}
				if prepared(admitted) != nil {
					t.Fatalf("%s: admission alone prepared the payload", tc.name)
				}
				requireSameBlocks(t, tc, tx, uint64(100+i), expected, admitted)
			}
		})
	}
}

// TestExpectedMove2MatchesByContent: a block takes a preparation only for a
// Move2 carrying the same source chain and the same storage entries. A Move2
// whose prepared payload names another source chain is computed at apply
// and succeeds; one whose storage differs from the prepared in one slot's
// value is computed at apply and still fails completeness. Each
// preparation stays in the slot after its block, until Close.
func TestExpectedMove2MatchesByContent(t *testing.T) {
	kp := keys.Deterministic(1)
	payloads, root := lockedPayloads(t, mptSource, 2, movedContract{stopCode, 100})
	honest := payloads[0]
	c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource, iavlSource}, kp)
	trustSource(t, c, mptSource, root)
	submit := func(nonce uint64, p *types.Move2Payload) *types.Receipt {
		t.Helper()
		if err := c.SubmitTx(move2Tx(t, kp, 2, nonce, p)); err != nil {
			t.Fatal(err)
		}
		_, recs := c.ApplyBlock(c.ProposeBatch(), 10+nonce, ProposerAddress(2, 0))
		if len(recs) != 1 {
			t.Fatalf("Move2 %d: %d receipts", nonce, len(recs))
		}
		if prepared(c) == nil {
			t.Fatalf("Move2 %d: a block took a preparation of other content", nonce)
		}
		return recs[0]
	}

	otherSource := *honest
	otherSource.SourceChain = iavlSource.ID
	expect(c, &otherSource)
	if rec := submit(0, honest); !rec.Succeeded() {
		t.Fatalf("honest Move2: %s", rec.Err)
	}

	expect(c, honest)
	forged := tampered(honest, func(s []types.StorageEntry) []types.StorageEntry {
		s[42].Value[31] ^= 1
		return s
	})
	if rec := submit(1, forged); !strings.Contains(rec.Err, core.ErrIncompleteSet.Error()) {
		t.Fatalf("forged storage: %q, want %v", rec.Err, core.ErrIncompleteSet)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if prepared(c) != nil {
		t.Fatal("a preparation is left after Close")
	}
}

// TestExpectedMove2CatchesEditedPayload: one storage entry of a payload is
// edited between BuildMove2 and the block that applies it. The block's
// transaction carries that very object, so it finds the preparation by
// content, and under go test takePrepared recomputes the source-kind root
// over the edited entries and panics instead of installing a tree built
// from entries the transaction no longer carries.
func TestExpectedMove2CatchesEditedPayload(t *testing.T) {
	kp := keys.Deterministic(1)
	src, addrs := lockedSource(t, mptSource, 2, movedContract{stopCode, 100})
	c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, kp)
	trustSource(t, c, mptSource, src.Root())
	p, err := c.BuildMove2(src, addrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	<-prepared(c).done // the edit comes after the preparation read the entries
	p.Storage[42].Value[31] ^= 1
	tx := move2Tx(t, kp, 2, 0, p)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "changed after BuildMove2") {
			t.Fatalf("ApplyBlock of an edited payload panicked with %v, want the prepared-result check", r)
		}
	}()
	c.ApplyBlock([]*types.Transaction{tx}, 10, ProposerAddress(2, 0))
	t.Fatal("ApplyBlock took the preparation of a payload edited after BuildMove2")
}

// TestExpectedMove2Bounded: a chain holds at most one preparation, in one
// slot, and a payload below prepareMin gets none. A second BuildMove2 while
// the first preparation is untaken replaces it and leaves the first
// goroutine its runs: no run is shared between the two, or with the
// chain's scratch (under -race a shared run is a reported race as well). A
// block takes the second, and the next build reuses its runs. Close waits
// for every goroutine started, after which the goroutine count is back
// where it was before the chain existed.
func TestExpectedMove2Bounded(t *testing.T) {
	keys.SharedPool() // the crypto workers live for the process
	base := runtime.NumGoroutine()
	kp := keys.Deterministic(1)
	contract, small := hashing.AddressFromBytes([]byte{0xde}), hashing.AddressFromBytes([]byte{0xdf})
	src, err := state.NewDB(mptSource.ID, trie.KindMPT)
	if err != nil {
		t.Fatal(err)
	}
	fillContract(src, contract, 200, 2)
	fillContract(src, small, prepareMin-1, 2)
	src.SetStorage(contract, slotWord(7), slotWord(70_000))
	src.SetMoveNonce(contract, 1)
	c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, kp)
	fillContract(c.StateDB(), contract, 200, mptSource.ID)
	trustSource(t, c, mptSource, src.Commit())
	build := func() (*types.Move2Payload, *move2Prep) {
		t.Helper()
		p, err := c.BuildMove2(src, contract, 1)
		if err != nil || !p.IsDelta() {
			t.Fatalf("the build: %v, delta %v", err, p != nil && p.IsDelta())
		}
		e := prepared(c)
		if e == nil || e.p != p {
			t.Fatal("the build left its preparation out of the slot")
		}
		return p, e
	}
	if _, err := c.BuildMove2(src, small, 1); err != nil || prepared(c) != nil {
		t.Fatalf("a payload of %d entries: %v, prepared %v", prepareMin-1, err, prepared(c) != nil)
	}

	_, first := build()
	p, second := build()
	if first == second {
		t.Fatal("the second build did not replace the untaken preparation")
	}
	<-first.done
	<-second.done
	c.mu.Lock()
	runs := [][]types.StorageEntry{first.base, first.merged, second.base, second.merged, c.scratch.Source, c.scratch.Target}
	c.mu.Unlock()
	for i, r := range runs {
		for _, q := range runs[i+1:] {
			if cap(r) > 0 && cap(q) > 0 && unsafe.SliceData(r) == unsafe.SliceData(q) {
				t.Fatalf("run %d is shared with another preparation or the scratch", i)
			}
		}
	}

	tx := wireCopy(t, move2Tx(t, kp, 2, 0, p))
	if _, recs := c.ApplyBlock([]*types.Transaction{tx}, 10, ProposerAddress(2, 0)); !recs[0].Succeeded() {
		t.Fatalf("the Move2: %s", recs[0].Err)
	}
	c.prepMu.Lock()
	kept := c.prep == second && second.p == nil && second.res == nil
	c.prepMu.Unlock()
	if !kept {
		t.Fatal("the slot does not keep the taken preparation's runs, and only them")
	}
	_, third := build()
	<-third.done
	c.mu.Lock()
	reused := unsafe.SliceData(third.merged) == unsafe.SliceData(second.merged) &&
		unsafe.SliceData(c.scratch.Target) == unsafe.SliceData(second.base)
	c.mu.Unlock()
	if !reused {
		t.Fatal("the build after a taken preparation did not reuse its runs")
	}

	_, fourth := build()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*move2Prep{first, second, third, fourth} {
		select {
		case <-e.done:
		default:
			t.Fatal("Close returned with a preparation still running")
		}
	}
	waitGoroutines(t, base)
}

// TestConcurrentMove2Submission submits Move2s from several goroutines at
// once, through SubmitTx and SubmitTxs and each twice, half of them built by
// BuildMove2 first, while a drainer proposes and applies blocks; run it
// under -race (`make race`, or `-race -count=10`). Every Move2 must commit
// exactly once, and no preparation may be left untaken: the last one built
// is the payload of a transaction submitted after it.
func TestConcurrentMove2Submission(t *testing.T) {
	const (
		goroutines = 4
		perSender  = 3
	)
	specs := make([]movedContract, goroutines*perSender)
	for i := range specs {
		specs[i] = movedContract{stopCode, 20 + 20*i} // split from 128 entries on
	}
	src, addrs := lockedSource(t, mptSource, 2, specs...)
	kps := make([]*keys.KeyPair, goroutines)
	for g := range kps {
		kps[g] = keys.Deterministic(uint64(500 + g))
	}
	c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, kps[0])
	for _, kp := range kps[1:] {
		c.StateDB().AddBalance(kp.Address(), u256.FromUint64(fund))
	}
	c.StateDB().Commit()
	trustSource(t, c, mptSource, src.Root())
	txs := make([][]*types.Transaction, goroutines)
	for g, kp := range kps {
		for n := 0; n < perSender; n++ {
			p, err := core.BuildMoveProof(src, addrs[g*perSender+n], 1)
			if err != nil {
				t.Fatal(err)
			}
			txs[g] = append(txs[g], move2Tx(t, kp, 2, uint64(n), p))
		}
	}

	var wg sync.WaitGroup
	for g := range txs {
		wg.Add(1)
		go func(batch []*types.Transaction, useBatch, build bool) {
			defer wg.Done()
			for _, tx := range batch {
				if build {
					if _, err := c.BuildMove2(src, tx.Move2.Contract, 1); err != nil {
						t.Errorf("build: %v", err)
					}
				}
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
		}(txs[g], g%2 == 1, g < goroutines/2)
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
	for _, batch := range txs {
		for _, tx := range batch {
			if n := committed[tx.ID()]; n != 1 {
				t.Errorf("Move2 of %s committed %d times, want 1", tx.Move2.Contract, n)
			}
		}
	}
	if prepared(c) != nil {
		t.Fatal("a preparation is left untaken with the pool empty")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEditedTransactionPanics edits Value on a signed transaction, which
// leaves its id memo and the verifiedID beside it naming content it no
// longer has, and requires both places a transaction enters — a pool's
// admission and a block's application — to panic under go test instead of
// trusting the memo.
func TestEditedTransactionPanics(t *testing.T) {
	kp := keys.Deterministic(1)
	for _, enter := range []struct {
		name string
		fn   func(c *Chain, tx *types.Transaction)
	}{
		{"pool", func(c *Chain, tx *types.Transaction) { _ = c.SubmitTx(tx) }},
		{"block", func(c *Chain, tx *types.Transaction) {
			c.ApplyBlock([]*types.Transaction{tx}, 10, ProposerAddress(2, 0))
		}},
	} {
		t.Run(enter.name, func(t *testing.T) {
			c := newChain(t, burrowConfig(2), nil, kp)
			tx := signedCall(t, kp, 2, 0, hashing.AddressFromBytes([]byte{9}), nil, 1)
			tx.Value = u256.FromUint64(1_000_000)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "changed after it was signed") {
					t.Fatalf("an edited transaction panicked with %v, want the id check", r)
				}
			}()
			enter.fn(c, tx)
			t.Fatal("an edited transaction was taken on its stale id")
		})
	}
}
