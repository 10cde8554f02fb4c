package chain

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scmove/internal/core"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/types"
)

// TestCommittedBodiesNotRetained: a chain keeps headers, receipts and the
// transaction index, not block bodies. Once ApplyBlock has returned and its
// listeners have run, the block, its transactions and a Move2's payload
// become unreachable while the chain itself lives on.
func TestCommittedBodiesNotRetained(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, kp)
	collected, want := commitTracked(t, c, kp)
	for deadline := time.Now().Add(10 * time.Second); collected.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Fatalf("%d of %d committed objects were collected; the chain still reaches the rest", got, want)
	}
	if h := c.Head().Height; h != 1 {
		t.Fatalf("head at %d, want 1", h)
	}
}

// commitTracked commits one block on c holding a transfer and a prepared
// Move2, with a block listener and a tx listener attached, and returns a
// count that rises as each of the block, its transactions and the Move2's
// payload is collected, with the number of objects tracked. It keeps no
// reference to any of them once it returns.
//
//go:noinline
func commitTracked(t *testing.T, c *Chain, kp *keys.KeyPair) (*atomic.Int32, int32) {
	t.Helper()
	src, addrs := lockedSource(t, mptSource, 2, movedContract{stopCode, prepareMin})
	trustSource(t, c, mptSource, src.Root())
	p, err := c.BuildMove2(src, addrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	move2 := move2Tx(t, kp, 2, 0, p)
	transfer := signedCall(t, kp, 2, 1, hashing.AddressFromBytes([]byte{1}), nil, 1)
	for _, tx := range []*types.Transaction{move2, transfer} {
		if err := c.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	var listened, notified int
	c.OnBlock(func(b *types.Block, _ []*types.Receipt) { listened += len(b.Txs) })
	c.NotifyTx(move2.ID(), func(*types.Receipt) { notified++ })
	block, recs := c.ApplyBlock(c.ProposeBatch(), 10, ProposerAddress(2, 0))
	if len(recs) != 2 || !recs[0].Succeeded() || !recs[1].Succeeded() {
		t.Fatalf("receipts %+v", recs)
	}
	if listened != 2 || notified != 1 {
		t.Fatalf("block listener saw %d txs, tx listener fired %d times", listened, notified)
	}
	if _, ok := c.Receipt(move2.ID()); !ok {
		t.Fatal("the chain must keep the Move2's receipt")
	}
	collected := new(atomic.Int32)
	track := func(obj any) {
		runtime.SetFinalizer(obj, func(any) { collected.Add(1) })
	}
	track(block)
	track(move2)
	track(transfer)
	track(p)
	return collected, 4
}
