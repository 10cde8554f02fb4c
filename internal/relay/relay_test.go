package relay_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// testChain builds a single chain driven manually by the scheduler.
func testChain(t *testing.T, sched *simclock.Scheduler, id hashing.ChainID, funded ...hashing.Address) *chain.Chain {
	t.Helper()
	c := idleChain(t, id, funded...)
	// Produce a block every second of simulated time.
	var produce func()
	produce = func() {
		c.ApplyBlock(c.ProposeBatch(), sched.NowUnix(), chain.ProposerAddress(id, 0))
		sched.After(time.Second, produce)
	}
	sched.After(time.Second, produce)
	return c
}

// idleChain builds a single chain that produces no block on its own.
func idleChain(t *testing.T, id hashing.ChainID, funded ...hashing.Address) *chain.Chain {
	t.Helper()
	cfg := chain.Config{
		ChainID: id, TreeKind: trie.KindMPT, Schedule: evm.EthereumSchedule(),
		BlockGasLimit: 100_000_000, MaxBlockTxs: 100, ConfirmationDepth: 2,
		PoolLimit: 1000,
	}
	c, err := chain.New(cfg, core.NewHeaderStore(), func(db *state.DB) {
		for _, a := range funded {
			db.AddBalance(a, u256.FromUint64(1<<50))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newClient returns a client whose submissions reach chains 1 and 2 over
// fault-free links after delay.
func newClient(kp *keys.KeyPair, sched *simclock.Scheduler, delay time.Duration) *relay.Client {
	links := make(map[hashing.ChainID]*simnet.Link)
	for _, id := range []hashing.ChainID{1, 2} {
		links[id] = simnet.NewLink(sched, delay, simnet.LinkFaults{}, 0)
	}
	return relay.NewClient(kp, links)
}

// sharedPoolWorkers is the size of keys.SharedPool: creating the pool here,
// at package init, sizes it to the process's GOMAXPROCS before any test
// changes that.
var sharedPoolWorkers = func() int {
	keys.SharedPool()
	return runtime.GOMAXPROCS(0)
}()

// TestAdmittedWhileSignatureQueued holds every shared crypto worker, so a
// client's deferred signature cannot land. Its transfer must still pass
// Chain.SubmitTx when the submission delay elapses, and ProposeBatch must
// hand it out only once the workers are released, signed, and count that
// one wait.
func TestAdmittedWhileSignatureQueued(t *testing.T) {
	sched := simclock.New()
	kp := keys.Deterministic(9)
	cl := newClient(kp, sched, 50*time.Millisecond)
	c := idleChain(t, 1, kp.Address())
	waits := metrics.NewCounters()
	c.SetObserver(metrics.NewRegistryWith(waits), func() time.Duration { return 0 })

	gate := make(chan struct{})
	var release sync.Once
	defer release.Do(func() { close(gate) })
	var held sync.WaitGroup
	held.Add(sharedPoolWorkers)
	for i := 0; i < sharedPoolWorkers; i++ {
		keys.SharedPool().Go(func() {
			held.Done()
			<-gate
		})
	}
	held.Wait()

	id := cl.Call(c, hashing.AddressFromBytes([]byte{0x09}), nil, u256.One())
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		sched.RunUntil(time.Second)
	}()
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		release.Do(func() { close(gate) })
		<-delivered
		t.Fatal("delivery waited for the queued signature")
	}
	if got := c.PendingTxs(); got != 1 {
		t.Fatalf("%d pending after delivery, want 1", got)
	}

	var batch []*types.Transaction
	proposed := make(chan struct{})
	go func() {
		defer close(proposed)
		batch = c.ProposeBatch()
	}()
	select {
	case <-proposed:
		t.Fatal("ProposeBatch returned while the signature was still queued")
	case <-time.After(100 * time.Millisecond):
	}
	release.Do(func() { close(gate) })
	select {
	case <-proposed:
	case <-time.After(5 * time.Second):
		t.Fatal("ProposeBatch did not return after the workers were released")
	}
	if got := waits.Get("loopwait.sig.propose.blocks"); got != 1 {
		t.Fatalf("loopwait.sig.propose.blocks is %d, want the one wait for the queued signature", got)
	}
	if len(batch) != 1 || batch[0].ID() != id {
		t.Fatalf("proposed %d transactions, want the transfer", len(batch))
	}
	if addr, err := batch[0].Sig.Verify(id); err != nil || addr != kp.Address() {
		t.Fatalf("proposed signature recovers (%s, %v), want %s", addr, err, kp.Address())
	}
	_, receipts := c.ApplyBlock(batch, sched.NowUnix(), chain.ProposerAddress(1, 0))
	if len(receipts) != 1 || !receipts[0].Succeeded() {
		t.Fatalf("receipts %+v", receipts)
	}
}

func TestClientNonceTracking(t *testing.T) {
	sched := simclock.New()
	kp := keys.Deterministic(1)
	cl := newClient(kp, sched, 10*time.Millisecond)
	c := testChain(t, sched, 1, kp.Address())

	// Three rapid-fire calls get sequential nonces and all commit.
	var ids []hashing.Hash
	for i := 0; i < 3; i++ {
		id := cl.Call(c, hashing.AddressFromBytes([]byte{0x01}), nil, u256.FromUint64(uint64(i+1)))
		ids = append(ids, id)
	}
	sched.RunUntil(5 * time.Second)
	for i, id := range ids {
		rec, ok := c.Receipt(id)
		if !ok || !rec.Succeeded() {
			t.Fatalf("tx %d: %+v ok=%v", i, rec, ok)
		}
	}
	if got := c.StateDB().GetNonce(kp.Address()); got != 3 {
		t.Fatalf("account nonce = %d", got)
	}
}

func TestClientSubmitDelay(t *testing.T) {
	sched := simclock.New()
	kp := keys.Deterministic(2)
	cl := newClient(kp, sched, 2*time.Second)
	c := testChain(t, sched, 1, kp.Address())

	id := cl.Call(c, hashing.AddressFromBytes([]byte{0x02}), nil, u256.One())
	// Before the submit delay elapses, nothing is pending.
	sched.RunUntil(1 * time.Second)
	if c.PendingTxs() != 0 {
		t.Fatal("tx must not reach the chain before the submission delay")
	}
	if _, ok := c.Receipt(id); ok {
		t.Fatal("tx must not commit before submission")
	}
	sched.RunUntil(5 * time.Second)
	if rec, ok := c.Receipt(id); !ok || !rec.Succeeded() {
		t.Fatal("tx must commit after the delay")
	}
}

func TestClientChainsKeepSeparateNonces(t *testing.T) {
	sched := simclock.New()
	kp := keys.Deterministic(3)
	cl := newClient(kp, sched, time.Millisecond)
	c1 := testChain(t, sched, 1, kp.Address())
	c2 := testChain(t, sched, 2, kp.Address())

	cl.Call(c1, hashing.AddressFromBytes([]byte{1}), nil, u256.One())
	id2 := cl.Call(c2, hashing.AddressFromBytes([]byte{1}), nil, u256.One())
	sched.RunUntil(3 * time.Second)
	// The chain-2 tx used nonce 0 there despite chain-1 traffic.
	rec, ok := c2.Receipt(id2)
	if !ok || !rec.Succeeded() {
		t.Fatalf("chain-2 tx: %+v", rec)
	}
}

// tinyPoolChain is a chain whose pool holds a single transaction, for
// forcing pool-rejection paths.
func tinyPoolChain(t *testing.T, sched *simclock.Scheduler, id hashing.ChainID, funded ...hashing.Address) *chain.Chain {
	t.Helper()
	cfg := chain.Config{
		ChainID: id, TreeKind: trie.KindMPT, Schedule: evm.EthereumSchedule(),
		BlockGasLimit: 100_000_000, MaxBlockTxs: 100, ConfirmationDepth: 2,
		PoolLimit: 1,
	}
	c, err := chain.New(cfg, core.NewHeaderStore(), func(db *state.DB) {
		for _, a := range funded {
			db.AddBalance(a, u256.FromUint64(1<<50))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var produce func()
	produce = func() {
		c.ApplyBlock(c.ProposeBatch(), sched.NowUnix(), chain.ProposerAddress(id, 0))
		sched.After(time.Second, produce)
	}
	sched.After(time.Second, produce)
	return c
}

func TestClientNonceRollbackAndResyncOnRejection(t *testing.T) {
	sched := simclock.New()
	kp, other := keys.Deterministic(5), keys.Deterministic(6)
	cl := newClient(kp, sched, time.Millisecond)
	filler := newClient(other, sched, time.Millisecond)
	c := tinyPoolChain(t, sched, 1, kp.Address(), other.Address())

	// The filler occupies the single pool slot first; the client's two
	// rapid-fire calls (nonces 0 and 1) both bounce off the full pool. The
	// first rejection happens with nonce 1 already handed out, so the
	// counter cannot simply step back — it must flag a resync.
	filler.Call(c, hashing.AddressFromBytes([]byte{1}), nil, u256.One())
	sched.RunUntil(2 * time.Millisecond)
	for i := 0; i < 2; i++ {
		cl.Call(c, hashing.AddressFromBytes([]byte{1}), nil, u256.One())
	}
	// Both rejections land, then the block commits the filler tx.
	sched.RunUntil(1500 * time.Millisecond)

	// A fresh call must reuse nonce 0 (resynced from committed state), not
	// wedge at nonce 2 behind the two burnt ones.
	id := cl.Call(c, hashing.AddressFromBytes([]byte{1}), nil, u256.One())
	sched.RunUntil(5 * time.Second)
	rec, ok := c.Receipt(id)
	if !ok || !rec.Succeeded() {
		t.Fatalf("post-rollback call must commit: %+v ok=%v", rec, ok)
	}
	if got := c.StateDB().GetNonce(kp.Address()); got != 1 {
		t.Fatalf("account nonce = %d, want 1 (rolled-back nonces reused)", got)
	}
}

func TestSubmitSignedIdempotent(t *testing.T) {
	sched := simclock.New()
	kp := keys.Deterministic(7)
	cl := newClient(kp, sched, time.Millisecond)
	c := testChain(t, sched, 1, kp.Address())

	tx := cl.SignedCall(c, hashing.AddressFromBytes([]byte{0x05}), nil, u256.One())
	// Triple submission before commit: the pool deduplicates by id.
	for i := 0; i < 3; i++ {
		cl.SubmitSigned(c, tx)
	}
	sched.RunUntil(3 * time.Second)
	rec, ok := c.Receipt(tx.ID())
	if !ok || !rec.Succeeded() {
		t.Fatalf("tx must commit once: %+v ok=%v", rec, ok)
	}
	if got := c.StateDB().GetNonce(kp.Address()); got != 1 {
		t.Fatalf("nonce = %d: duplicates must not execute", got)
	}

	// Resubmission after commit: the stale copy is dropped at proposal time
	// and must not overwrite the success receipt with a nonce failure.
	cl.SubmitSigned(c, tx)
	sched.RunUntil(6 * time.Second)
	rec, _ = c.Receipt(tx.ID())
	if !rec.Succeeded() {
		t.Fatalf("late resubmission overwrote the receipt: %+v", rec)
	}
	if got := c.StateDB().GetNonce(kp.Address()); got != 1 {
		t.Fatalf("nonce moved to %d after stale resubmission", got)
	}
	if c.PendingTxs() != 0 {
		t.Fatal("stale copy must be evicted from the pool")
	}
}

func TestMoveResultPhaseArithmetic(t *testing.T) {
	r := &relay.MoveResult{
		StartedAt:    10 * time.Second,
		Move1At:      17 * time.Second,
		ProofReadyAt: 47 * time.Second,
		Move2At:      55 * time.Second,
	}
	if r.Move1Latency() != 7*time.Second {
		t.Fatalf("move1 = %v", r.Move1Latency())
	}
	if r.WaitProofLatency() != 30*time.Second {
		t.Fatalf("wait = %v", r.WaitProofLatency())
	}
	if r.Move2Latency() != 8*time.Second {
		t.Fatalf("move2 = %v", r.Move2Latency())
	}
	if r.Total() != 45*time.Second {
		t.Fatalf("total = %v", r.Total())
	}
}

func TestMoverFailsFastOnFailedMove1(t *testing.T) {
	sched := simclock.New()
	kp := keys.Deterministic(4)
	cl := newClient(kp, sched, time.Millisecond)
	src := testChain(t, sched, 1, kp.Address())
	dst := testChain(t, sched, 2, kp.Address())

	// Target a contract that reverts every call: Move1 fails and the mover
	// reports it instead of hanging.
	reverting := hashing.AddressFromBytes([]byte{0x99})
	src.StateDB().CreateContract(reverting, []byte{byte(evm.PUSH1), 0, byte(evm.PUSH1), 0, byte(evm.REVERT)})
	src.StateDB().Commit()

	var result *relay.MoveResult
	relay.NewMover(sched, src, dst, relay.NewJournal(), metrics.NewCounters()).Move(cl, reverting, core.MoveToInput(2), func(r *relay.MoveResult) {
		result = r
	})
	sched.RunUntil(10 * time.Second)
	if result == nil {
		t.Fatal("mover must report the failure")
	}
	if result.Err == nil {
		t.Fatal("failed Move1 must surface as an error")
	}
	if result.Move1Gas == 0 {
		t.Fatal("the failed transaction's gas is still recorded")
	}
}
