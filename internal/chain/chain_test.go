package chain

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scmove/internal/codec"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

const fund = 1_000_000_000_000

func ethConfig(id hashing.ChainID) Config {
	return Config{
		ChainID:           id,
		TreeKind:          trie.KindMPT,
		Schedule:          evm.EthereumSchedule(),
		BlockGasLimit:     30_000_000,
		MaxBlockTxs:       200,
		ConfirmationDepth: 6,
		PoolLimit:         10_000,
	}
}

func burrowConfig(id hashing.ChainID) Config {
	return Config{
		ChainID:           id,
		TreeKind:          trie.KindIAVL,
		Schedule:          evm.BurrowSchedule(),
		BlockGasLimit:     30_000_000,
		MaxBlockTxs:       200,
		LaggingStateRoot:  true,
		ConfirmationDepth: 2,
		PoolLimit:         10_000,
	}
}

func newChain(t testing.TB, cfg Config, peers []core.ChainParams, kp *keys.KeyPair) *Chain {
	t.Helper()
	hs := core.NewHeaderStore(peers...)
	c, err := New(cfg, hs, func(db *state.DB) {
		db.AddBalance(kp.Address(), u256.FromUint64(fund))
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func signedCall(t *testing.T, kp *keys.KeyPair, chainID hashing.ChainID, nonce uint64,
	to hashing.Address, data []byte, value uint64) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		ChainID:  chainID,
		Nonce:    nonce,
		Kind:     types.TxCall,
		To:       to,
		Value:    u256.FromUint64(value),
		GasLimit: 1_000_000,
		GasPrice: u256.FromUint64(2),
		Data:     data,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTransferTxMovesValueAndFees(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	to := hashing.AddressFromBytes([]byte{0x77})
	proposer := ProposerAddress(1, 0)

	tx := signedCall(t, kp, 1, 0, to, nil, 500)
	if err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	block, receipts := c.ApplyBlock(c.ProposeBatch(), 100, proposer)
	if len(receipts) != 1 || !receipts[0].Succeeded() {
		t.Fatalf("receipts = %+v", receipts)
	}
	rec := receipts[0]
	sched := evm.EthereumSchedule()
	if rec.GasUsed != sched.TxBase {
		t.Fatalf("gas used = %d, want %d", rec.GasUsed, sched.TxBase)
	}
	db := c.StateDB()
	if got := db.GetBalance(to); !got.Eq(u256.FromUint64(500)) {
		t.Fatalf("recipient = %s", got)
	}
	feePaid := u256.FromUint64(rec.GasUsed).Mul(u256.FromUint64(2))
	wantSender := u256.FromUint64(fund).Sub(u256.FromUint64(500)).Sub(feePaid)
	if got := db.GetBalance(kp.Address()); !got.Eq(wantSender) {
		t.Fatalf("sender = %s, want %s", got, wantSender)
	}
	if got := db.GetBalance(proposer); !got.Eq(feePaid) {
		t.Fatalf("proposer fees = %s, want %s", got, feePaid)
	}
	if db.GetNonce(kp.Address()) != 1 {
		t.Fatal("nonce must advance")
	}
	if block.Header.Height != 1 || block.Header.GasUsed != rec.GasUsed {
		t.Fatalf("header %+v", block.Header)
	}
}

func TestFailedTxChargesGas(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	reverting := hashing.AddressFromBytes([]byte{0x99})
	c.StateDB().CreateContract(reverting, asm.MustAssemble(`
		PUSH1 0
		PUSH1 0
		REVERT
	`))
	c.StateDB().Commit()

	tx := signedCall(t, kp, 1, 0, reverting, nil, 0)
	if err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	_, receipts := c.ApplyBlock(c.ProposeBatch(), 100, ProposerAddress(1, 0))
	rec := receipts[0]
	if rec.Succeeded() {
		t.Fatal("reverting call must fail")
	}
	if rec.GasUsed == 0 {
		t.Fatal("failed tx must still pay gas")
	}
	if !strings.Contains(rec.Err, "reverted") {
		t.Fatalf("err = %q", rec.Err)
	}
	if c.StateDB().GetNonce(kp.Address()) != 1 {
		t.Fatal("nonce must advance on failure")
	}
}

func TestCreateTxDeploys(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	code := asm.MustAssemble("PUSH1 1 PUSH1 0 SSTORE STOP")
	tx := &types.Transaction{
		ChainID:  1,
		Nonce:    0,
		Kind:     types.TxCreate,
		GasLimit: 1_000_000,
		GasPrice: u256.FromUint64(2),
		Data:     code,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	_, receipts := c.ApplyBlock(c.ProposeBatch(), 100, ProposerAddress(1, 0))
	rec := receipts[0]
	if !rec.Succeeded() || rec.Created.IsZero() {
		t.Fatalf("receipt %+v", rec)
	}
	if len(c.StateDB().GetCode(rec.Created)) != len(code) {
		t.Fatal("code must be deployed")
	}
}

func TestBadNonceFailsWithoutFee(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	tx := signedCall(t, kp, 1, 7, hashing.AddressFromBytes([]byte{1}), nil, 0)
	rec := c.applyTx(tx, evm.BlockContext{ChainID: 1, GasLimit: 30_000_000}, nil)
	if rec.Succeeded() || rec.GasUsed != 0 {
		t.Fatalf("receipt %+v", rec)
	}
	if got := c.StateDB().GetBalance(kp.Address()); !got.Eq(u256.FromUint64(fund)) {
		t.Fatal("bad-nonce tx must not charge")
	}
}

func TestHeaderRootRule(t *testing.T) {
	kp := keys.Deterministic(1)
	// Non-lagging: header h carries the root after h.
	eth := newChain(t, ethConfig(1), nil, kp)
	b1, _ := eth.ApplyBlock(nil, 10, ProposerAddress(1, 0))
	r1, _ := eth.RootAt(1)
	if b1.Header.StateRoot != r1 {
		t.Fatal("eth-like header must carry its own block's root")
	}
	// Lagging: header h carries the root after h-1.
	bur := newChain(t, burrowConfig(2), nil, kp)
	tx := signedCall(t, kp, 2, 0, hashing.AddressFromBytes([]byte{3}), nil, 5)
	if err := bur.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	bb1, _ := bur.ApplyBlock(bur.ProposeBatch(), 10, ProposerAddress(2, 0))
	bb2, _ := bur.ApplyBlock(nil, 15, ProposerAddress(2, 0))
	r0, _ := bur.RootAt(0)
	br1, _ := bur.RootAt(1)
	if bb1.Header.StateRoot != r0 {
		t.Fatal("lagging header 1 must carry the genesis root")
	}
	if bb2.Header.StateRoot != br1 {
		t.Fatal("lagging header 2 must carry height 1's root")
	}
	if br1 == r0 {
		t.Fatal("the transfer must have changed the root")
	}
}

func TestNotifyTx(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	tx := signedCall(t, kp, 1, 0, hashing.AddressFromBytes([]byte{1}), nil, 1)
	fired := 0
	c.NotifyTx(tx.ID(), func(rec *types.Receipt) {
		fired++
		if h, _ := c.TxHeight(rec.TxID); !rec.Succeeded() || h != 1 {
			t.Errorf("rec %+v height %d", rec, h)
		}
	})
	if err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	c.ApplyBlock(c.ProposeBatch(), 10, ProposerAddress(1, 0))
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// Late registration fires immediately.
	c.NotifyTx(tx.ID(), func(*types.Receipt) { fired++ })
	if fired != 2 {
		t.Fatal("late NotifyTx must fire immediately")
	}
}

// movableCode is a minimal Listing-1-style contract: called on chain 1,
// its moveTo routine moves it to chain 2; called on chain 2 (including the
// moveFinish invocation) it is a no-op.
func movableCode() []byte {
	return asm.MustAssemble(`
		CHAINID
		PUSH1 2
		EQ
		PUSH @done
		JUMPI
		PUSH1 2
		MOVE
	@done:
		JUMPDEST
		STOP
	`)
}

// TestCrossChainMoveThroughBlocks drives a full Move1/Move2 through block
// execution on two heterogeneous chains with manually relayed headers.
func TestCrossChainMoveThroughBlocks(t *testing.T) {
	kp := keys.Deterministic(1)
	cfg1, cfg2 := ethConfig(1), burrowConfig(2)
	src := newChain(t, cfg1, []core.ChainParams{cfg2.Params()}, kp)
	dst := newChain(t, cfg2, []core.ChainParams{cfg1.Params()}, kp)

	contract := hashing.AddressFromBytes([]byte{0xcc})
	src.StateDB().CreateContract(contract, movableCode())
	src.StateDB().SetStorage(contract, [32]byte{31: 1}, [32]byte{31: 42})
	src.StateDB().Commit()

	// Move1: call the contract; its code executes MOVE(2).
	move1 := signedCall(t, kp, 1, 0, contract, core.MoveToInput(2), 0)
	if err := src.SubmitTx(move1); err != nil {
		t.Fatal(err)
	}
	block1, receipts := src.ApplyBlock(src.ProposeBatch(), 10, ProposerAddress(1, 0))
	if !receipts[0].Succeeded() {
		t.Fatalf("move1 failed: %s", receipts[0].Err)
	}
	if src.StateDB().GetLocation(contract) != 2 {
		t.Fatal("contract must be locked towards chain 2")
	}

	// Build the proof at the Move1 height.
	payload, err := core.BuildMoveProof(src.StateDB(), contract, block1.Header.Height)
	if err != nil {
		t.Fatal(err)
	}

	// Mine p more blocks on the source and relay all headers to dst.
	for i := 0; i < int(cfg1.ConfirmationDepth); i++ {
		src.ApplyBlock(nil, uint64(20+i), ProposerAddress(1, 0))
	}
	var headers []*types.Header
	for h := uint64(0); h <= src.Head().Height; h++ {
		hdr, _ := src.HeaderAt(h)
		headers = append(headers, hdr)
	}
	if err := dst.Headers().Update(1, headers, src.Head().Height); err != nil {
		t.Fatal(err)
	}

	// Move2 on the target chain.
	move2 := &types.Transaction{
		ChainID:  2,
		Nonce:    0,
		Kind:     types.TxMove2,
		GasLimit: 10_000_000,
		GasPrice: u256.FromUint64(2),
		Move2:    payload,
	}
	if err := move2.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if err := dst.SubmitTx(move2); err != nil {
		t.Fatal(err)
	}
	_, receipts = dst.ApplyBlock(dst.ProposeBatch(), 200, ProposerAddress(2, 0))
	if !receipts[0].Succeeded() {
		t.Fatalf("move2 failed: %s", receipts[0].Err)
	}
	if dst.StateDB().GetLocation(contract) != 2 {
		t.Fatal("contract must now live on chain 2")
	}
	if got := dst.StateDB().GetStorage(contract, [32]byte{31: 1}); got != ([32]byte{31: 42}) {
		t.Fatal("storage must be recreated on chain 2")
	}

	// Replaying the same Move2 must fail on the move nonce.
	replay := &types.Transaction{
		ChainID:  2,
		Nonce:    1,
		Kind:     types.TxMove2,
		GasLimit: 10_000_000,
		GasPrice: u256.FromUint64(2),
		Move2:    payload,
	}
	if err := replay.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if err := dst.SubmitTx(replay); err != nil {
		t.Fatal(err)
	}
	_, receipts = dst.ApplyBlock(dst.ProposeBatch(), 210, ProposerAddress(2, 0))
	if receipts[0].Succeeded() {
		t.Fatal("replayed Move2 must fail")
	}
	if !strings.Contains(receipts[0].Err, "nonce") {
		t.Fatalf("err = %q", receipts[0].Err)
	}
}

func TestMove2GasGrowsWithState(t *testing.T) {
	kp := keys.Deterministic(1)
	cfg := ethConfig(1)
	c := newChain(t, cfg, nil, kp)
	mk := func(n int) *types.Move2Payload {
		entries := make([]types.StorageEntry, n)
		for i := range entries {
			entries[i] = types.StorageEntry{Key: [32]byte{byte(i), 1}, Value: [32]byte{1}}
		}
		return &types.Move2Payload{Storage: entries, Code: []byte("some contract code")}
	}
	gas := func(p *types.Move2Payload) uint64 { return c.move2Gas(p.Code, len(p.Storage), p.AccountProof) }
	g1 := gas(mk(1))
	g10 := gas(mk(10))
	g100 := gas(mk(100))
	sched := cfg.Schedule
	if g10-g1 != 9*sched.SStoreSet || g100-g10 != 90*sched.SStoreSet {
		t.Fatalf("gas must grow linearly in entries: %d %d %d", g1, g10, g100)
	}
}

func TestTxListRoundTrip(t *testing.T) {
	kp := keys.Deterministic(1)
	var txs []*types.Transaction
	for n := uint64(0); n < 5; n++ {
		txs = append(txs, signedCall(t, kp, 1, n, hashing.AddressFromBytes([]byte{1}), []byte("d"), 0))
	}
	decoded, err := DecodeTxList(EncodeTxList(txs))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 5 {
		t.Fatalf("decoded %d", len(decoded))
	}
	for i := range txs {
		if decoded[i].ID() != txs[i].ID() {
			t.Fatal("ids must survive")
		}
	}
	if _, err := DecodeTxList([]byte{0xff}); err == nil {
		t.Fatal("garbage must not decode")
	}
	empty, err := DecodeTxList(EncodeTxList(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty list: %v %d", err, len(empty))
	}
}

// encodeTxListNested is EncodeTxList as it was first written — each
// transaction encoded on its own, then copied behind its length — kept as
// the reference the one-buffer encoder must match byte for byte.
func encodeTxListNested(txs []*types.Transaction) []byte {
	w := codec.NewWriter(256 * (len(txs) + 1))
	w.WriteUvarint(uint64(len(txs)))
	for _, tx := range txs {
		w.WriteBytes(tx.Encode())
	}
	return w.Bytes()
}

// TestEncodeTxListMatchesNestedForm holds EncodeTxList to the nested form on
// lists of calls, creates and Move2s whose lengths straddle the one-, two-
// and three-byte length prefixes, and pins it at one allocation: the buffer
// it returns.
func TestEncodeTxListMatchesNestedForm(t *testing.T) {
	kp := keys.Deterministic(1)
	payloads, _ := lockedPayloads(t, mptSource, 2, movedContract{stopCode, 1}, movedContract{stopCode, 300})
	var txs []*types.Transaction
	for i, n := range []int{0, 1, 126, 127, 128, 16_383, 16_384} {
		txs = append(txs, signedCall(t, kp, 1, uint64(i), hashing.AddressFromBytes([]byte{1}), make([]byte, n), 0))
	}
	create := &types.Transaction{ChainID: 1, Nonce: 9, Kind: types.TxCreate, GasLimit: 1, Data: []byte("code")}
	if err := create.Sign(kp); err != nil {
		t.Fatal(err)
	}
	txs = append(txs, create, move2Tx(t, kp, 1, 10, payloads[0]), move2Tx(t, kp, 1, 11, payloads[1]))
	for _, list := range [][]*types.Transaction{nil, txs[:1], txs[4:5], txs} {
		got, want := EncodeTxList(list), encodeTxListNested(list)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d txs: EncodeTxList differs from the nested form (%d vs %d bytes)", len(list), len(got), len(want))
		}
		if len(got) != cap(got) {
			t.Fatalf("%d txs: buffer of capacity %d holds %d bytes", len(list), cap(got), len(got))
		}
	}
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	if a := testing.AllocsPerRun(20, func() { EncodeTxList(txs) }); a != 1 {
		t.Fatalf("EncodeTxList allocates %.1f times, want 1", a)
	}
	if a := testing.AllocsPerRun(20, func() { EncodeTxList(nil) }); a != 0 {
		t.Fatalf("EncodeTxList of an empty batch allocates %.1f times, want 0", a)
	}
}

// forgedFromTx signs a transaction with kp, then rewrites From to another
// address: the signature is genuine but no longer matches the claimed
// sender (and, since From is covered by the id, no longer the content).
func forgedFromTx(t *testing.T, kp *keys.KeyPair, chainID hashing.ChainID) *types.Transaction {
	t.Helper()
	tx := signedCall(t, kp, chainID, 0, hashing.AddressFromBytes([]byte{0x55}), nil, 100)
	forged, err := types.DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	forged.From = hashing.AddressFromBytes([]byte{0xAA})
	// Through the wire once more, as a peer would send it: the id is the
	// forged content's (types.CheckID refuses an object edited in place).
	if forged, err = types.DecodeTransaction(forged.Encode()); err != nil {
		t.Fatal(err)
	}
	return forged
}

func TestForgedFromRejectedAtAdmissionAndApply(t *testing.T) {
	kp := keys.Deterministic(1)
	victim := hashing.AddressFromBytes([]byte{0xAA})
	c := newChain(t, ethConfig(1), nil, kp)
	c.StateDB().AddBalance(victim, u256.FromUint64(fund))
	c.StateDB().Commit()

	forged := forgedFromTx(t, kp, 1)

	// Layer 1: the pool must refuse it.
	if err := c.SubmitTx(forged); !errors.Is(err, types.ErrBadTxSignature) {
		t.Fatalf("admission error = %v, want ErrBadTxSignature", err)
	}
	if c.PendingTxs() != 0 {
		t.Fatal("forged tx must not be pending")
	}

	// Layer 2: a proposer that bypasses the pool (byzantine, or a decoded
	// block from a peer) must not execute it either — the victim's balance
	// cannot move.
	_, receipts := c.ApplyBlock([]*types.Transaction{forged}, 100, ProposerAddress(1, 0))
	if len(receipts) != 1 || receipts[0].Succeeded() {
		t.Fatalf("receipts = %+v", receipts)
	}
	if receipts[0].GasUsed != 0 {
		t.Fatal("unauthenticated tx must not charge gas")
	}
	if got := c.StateDB().GetBalance(victim); !got.Eq(u256.FromUint64(fund)) {
		t.Fatalf("victim balance = %s, forged From must not spend it", got)
	}
}

func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	kpA := keys.Deterministic(1)
	kpB := keys.Deterministic(2)
	mk := func(c *Chain) []*types.Transaction {
		txs := []*types.Transaction{
			signedCall(t, kpA, 1, 0, hashing.AddressFromBytes([]byte{1}), nil, 1),
			signedCall(t, kpB, 1, 0, hashing.AddressFromBytes([]byte{2}), nil, 2),
			signedCall(t, kpA, 1, 1, hashing.AddressFromBytes([]byte{3}), nil, 3),
		}
		txs = append(txs, forgedFromTx(t, kpA, 1)) // must be rejected
		txs = append(txs, txs[0])                  // duplicate
		return txs
	}

	serial := newChain(t, ethConfig(1), nil, kpA)
	serial.StateDB().AddBalance(kpB.Address(), u256.FromUint64(fund))
	serial.StateDB().Commit()
	var serialErrs []bool
	for _, tx := range mk(serial) {
		serialErrs = append(serialErrs, serial.SubmitTx(tx) != nil)
	}

	batch := newChain(t, ethConfig(1), nil, kpA)
	batch.StateDB().AddBalance(kpB.Address(), u256.FromUint64(fund))
	batch.StateDB().Commit()
	var batchErrs []bool
	for _, err := range batch.SubmitTxs(mk(batch)) {
		batchErrs = append(batchErrs, err != nil)
	}

	if !reflect.DeepEqual(serialErrs, batchErrs) {
		t.Fatalf("batch admission %v, serial %v", batchErrs, serialErrs)
	}
	if serial.PendingTxs() != batch.PendingTxs() {
		t.Fatalf("pending %d vs %d", batch.PendingTxs(), serial.PendingTxs())
	}
}

// TestApplyBlockParallelDeterminism commits the same traffic serially
// (GOMAXPROCS=1, every parallel path falls back inline) and with parallel
// sender pre-recovery, and requires bit-identical headers, roots, and
// receipts.
func TestApplyBlockParallelDeterminism(t *testing.T) {
	run := func(procs int) (roots []hashing.Hash, headers []hashing.Hash, receipts []*types.Receipt) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		kps := []*keys.KeyPair{keys.Deterministic(1), keys.Deterministic(2), keys.Deterministic(3)}
		c := newChain(t, ethConfig(1), nil, kps[0])
		for _, kp := range kps[1:] {
			c.StateDB().AddBalance(kp.Address(), u256.FromUint64(fund))
		}
		c.StateDB().Commit()
		for block := 0; block < 3; block++ {
			var txs []*types.Transaction
			for i, kp := range kps {
				tx := signedCall(t, kp, 1, uint64(block), hashing.AddressFromBytes([]byte{byte(10 + i)}), nil, uint64(block*10+i+1))
				// Decode to strip memos, as consensus-delivered blocks do.
				dec, err := types.DecodeTransaction(tx.Encode())
				if err != nil {
					t.Fatal(err)
				}
				txs = append(txs, dec)
			}
			b, recs := c.ApplyBlock(txs, uint64(100+block), ProposerAddress(1, 0))
			root, _ := c.RootAt(b.Header.Height)
			roots = append(roots, root)
			headers = append(headers, b.Header.Hash())
			receipts = append(receipts, recs...)
		}
		return
	}

	wantRoots, wantHeaders, wantRecs := run(1)
	for _, procs := range []int{2, runtime.NumCPU()} {
		roots, headers, recs := run(procs)
		if !reflect.DeepEqual(roots, wantRoots) {
			t.Fatalf("GOMAXPROCS=%d: state roots diverge", procs)
		}
		if !reflect.DeepEqual(headers, wantHeaders) {
			t.Fatalf("GOMAXPROCS=%d: header hashes diverge", procs)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Fatalf("GOMAXPROCS=%d: receipts diverge", procs)
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

// TestApplyBlockRecoversSendersOutsideLock holds every shared crypto worker
// while ApplyBlock recovers the senders of a block of decoded copies, whose
// signatures go to the pool. A reader must not wait behind that recovery:
// QueryAccount returns while the workers are still held.
func TestApplyBlockRecoversSendersOutsideLock(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	to := hashing.AddressFromBytes([]byte{0x42})
	block := make([]*types.Transaction, 2)
	for i := range block {
		dec, err := types.DecodeTransaction(signedCall(t, kp, 1, uint64(i), to, nil, 1).Encode())
		if err != nil {
			t.Fatal(err)
		}
		block[i] = dec
	}

	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	defer open()
	var held sync.WaitGroup
	held.Add(sharedPoolWorkers)
	for i := 0; i < sharedPoolWorkers; i++ {
		keys.SharedPool().Go(func() {
			held.Done()
			<-gate
		})
	}
	held.Wait()

	var recs []*types.Receipt
	applied := make(chan struct{})
	go func() {
		defer close(applied)
		_, recs = c.ApplyBlock(block, 10, ProposerAddress(1, 0))
	}()
	// Wait until ApplyBlock is parked in the batch verification.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "keys.VerifyBatch"); {
		if time.Now().After(deadline) {
			t.Fatal("ApplyBlock never reached the crypto pool")
		}
		time.Sleep(time.Millisecond)
	}

	queried := make(chan struct{})
	go func() {
		defer close(queried)
		c.QueryAccount(kp.Address())
	}()
	blocked := false
	select {
	case <-queried:
	case <-time.After(5 * time.Second):
		blocked = true
	}
	open()
	<-applied
	<-queried
	if blocked {
		t.Fatal("QueryAccount waited for ApplyBlock's sender recovery: the chain lock is held across ECDSA")
	}
	for i, rec := range recs {
		if !rec.Succeeded() {
			t.Fatalf("receipt %d: %+v", i, rec)
		}
	}
}
