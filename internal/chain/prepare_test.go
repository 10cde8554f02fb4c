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
	requireRoundTrip(t, dec, tx)
	return dec
}

// tampered returns p with its own copy of the storage, edited by edit.
func tampered(p *types.Move2Payload, edit func(s []types.StorageEntry) []types.StorageEntry) *types.Move2Payload {
	cp := *p
	cp.Storage = edit(slices.Clone(p.Storage))
	return &cp
}

// preparedCount is the length of c's Move2 preparation list.
func preparedCount(c *Chain) int {
	c.prepMu.Lock()
	defer c.prepMu.Unlock()
	return len(c.prep)
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
// preparation to be left listed, and a Move2 that succeeded to read back on
// every chain (requireReadBack).
func requireSameBlocks(t *testing.T, tc move2Case, tx *types.Transaction, now uint64, chains ...*Chain) {
	t.Helper()
	var (
		first *types.Block
		recs  []*types.Receipt
	)
	for i, c := range chains {
		b, r := c.ApplyBlock([]*types.Transaction{wireCopy(t, tx)}, now, ProposerAddress(c.ChainID(), 0))
		if n := preparedCount(c); n != 0 {
			t.Fatalf("%s: chain %d has %d prepared entries left after the block", tc.name, i, n)
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
// relayer announces the payload (ExpectMove2), or computed inline at apply
// because nobody did. Neither chain's pool sees the transaction, as on a
// validator handed another's proposal: one chain is told to expect each
// payload, the other is not, and both are handed the blocks as wire copies.
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
				prep.ExpectMove2(tc.payload)
				want := 0
				if len(tc.payload.Storage) >= prepareMin {
					want = 1
				}
				if got := preparedCount(prep); got != want {
					t.Fatalf("%s: %d preparations listed for %d slots, want %d",
						tc.name, got, len(tc.payload.Storage), want)
				}
				requireSameBlocks(t, tc, tx, uint64(100+i), prep, inline)
			}
		})
	}
}

// TestExpectedMove2MatchesInline extends the differential to pool
// admission, which prepares nothing: one chain is told to expect each
// payload and then admits the transaction, which must leave the expectation
// for the block; the other only admits it, which must list nothing. Both
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
				expected.ExpectMove2(tc.payload)
				want := 0
				if len(tc.payload.Storage) >= prepareMin {
					want = 1
				}
				for _, c := range []*Chain{expected, admitted} {
					if err := c.SubmitTx(tx); err != nil {
						t.Fatalf("%s: admission: %v", tc.name, err)
					}
				}
				if got := preparedCount(expected); got != want {
					t.Fatalf("%s: %d preparations listed after admitting %d slots, want %d",
						tc.name, got, len(tc.payload.Storage), want)
				}
				if n := preparedCount(admitted); n != 0 {
					t.Fatalf("%s: admission alone listed %d preparations", tc.name, n)
				}
				requireSameBlocks(t, tc, tx, uint64(100+i), expected, admitted)
			}
		})
	}
}

// TestExpectedMove2MatchesByContent: a block takes an expectation only for a
// Move2 carrying the same source chain and the same storage entries. A Move2
// whose expectation names another source chain is computed at apply and
// succeeds; one whose storage differs from the expected in one slot's value
// is computed at apply and still fails completeness. Both expectations stay
// listed after their blocks, until Close.
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
		if n := preparedCount(c); n != int(nonce)+1 {
			t.Fatalf("Move2 %d: %d expectations left after its block, want %d", nonce, n, nonce+1)
		}
		return recs[0]
	}

	otherSource := *honest
	otherSource.SourceChain = iavlSource.ID
	c.ExpectMove2(&otherSource)
	if rec := submit(0, honest); !rec.Succeeded() {
		t.Fatalf("honest Move2: %s", rec.Err)
	}

	c.ExpectMove2(honest)
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
	if n := preparedCount(c); n != 0 {
		t.Fatalf("%d expectations after Close", n)
	}
}

// TestExpectedMove2Bounded: expectations that no block ever takes stay at
// maxPrepared, the oldest leaving first, a payload expected twice is
// prepared once, and one below prepareMin not at all; one a block takes from
// the middle of the list leaves no pointer behind in its backing array.
// Close waits for every preparation started, after which the goroutine count
// is back where it was before the chain existed.
func TestExpectedMove2Bounded(t *testing.T) {
	keys.SharedPool() // the crypto workers live for the process
	base := runtime.NumGoroutine()
	specs := make([]movedContract, maxPrepared+8)
	for i := range specs {
		specs[i] = movedContract{stopCode, prepareMin + i}
	}
	payloads, _ := lockedPayloads(t, mptSource, 2, specs...)
	small, _ := lockedPayloads(t, mptSource, 2, movedContract{stopCode, prepareMin - 1})
	kp := keys.Deterministic(1)
	c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, kp)
	c.ExpectMove2(small[0])
	c.ExpectMove2(nil)
	for _, p := range payloads {
		c.ExpectMove2(p)
		c.ExpectMove2(p)
	}
	if n := preparedCount(c); n != maxPrepared {
		t.Fatalf("%d expectations, want the bound %d", n, maxPrepared)
	}
	listed := payloads[len(payloads)-maxPrepared:]
	c.prepMu.Lock()
	for i, e := range c.prep {
		if e.p != listed[i] {
			t.Errorf("expectation %d is for %s, want %s", i, e.p.Contract, listed[i].Contract)
		}
	}
	c.prepMu.Unlock()
	taken := listed[maxPrepared/2]
	tx := wireCopy(t, move2Tx(t, kp, 2, 0, taken))
	if _, recs := c.ApplyBlock([]*types.Transaction{tx}, 10, ProposerAddress(2, 0)); len(recs) != 1 {
		t.Fatalf("%d receipts", len(recs))
	}
	c.prepMu.Lock()
	if n := len(c.prep); n != maxPrepared-1 {
		t.Errorf("%d expectations after a block took one, want %d", n, maxPrepared-1)
	}
	if slices.ContainsFunc(c.prep, func(e *move2Prep) bool { return e.p == taken }) {
		t.Error("the block's Move2 left its expectation listed")
	}
	if spare := c.prep[len(c.prep):cap(c.prep)]; slices.ContainsFunc(spare, func(e *move2Prep) bool { return e != nil }) {
		t.Error("a taken expectation is still reachable from the list's backing array")
	}
	left := slices.Clone(c.prep)
	c.prepMu.Unlock()
	if err := c.Close(); err != nil {
		t.Fatal(err)
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

// TestConcurrentMove2Submission submits Move2s from several goroutines at
// once, through SubmitTx and SubmitTxs and each twice, half of them announced
// by ExpectMove2 first, while a drainer proposes and applies blocks; run it
// under -race (`make race`, or `-race -count=10`). Every Move2 must commit
// exactly once, and the preparation list must end empty.
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
		go func(batch []*types.Transaction, useBatch, expect bool) {
			defer wg.Done()
			for _, tx := range batch {
				if expect {
					c.ExpectMove2(tx.Move2)
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
	if n := preparedCount(c); n != 0 {
		t.Fatalf("%d preparations left with the pool empty", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
