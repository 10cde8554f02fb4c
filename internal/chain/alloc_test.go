package chain

import (
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/types"
)

// TestTransferAndStaticCallAllocateNoEVM pins cut three of the block path:
// every transaction and every StaticCall runs in the chain's one EVM,
// rebound for it. Once a block as large as the measured one has sized the
// journal, the working set's records and the dirty list, a transfer
// allocates only the receipt the chain keeps, and a StaticCall to an
// account without code allocates nothing.
func TestTransferAndStaticCallAllocateNoEVM(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	to := hashing.AddressFromBytes([]byte{0x77})
	const warm, runs = 300, 100
	txs := make([]*types.Transaction, warm+runs+1)
	for n := range txs {
		txs[n] = signedCall(t, kp, 1, uint64(n), to, nil, 1)
	}
	types.RecoverSenders(txs)
	blockCtx := evm.BlockContext{ChainID: 1, GasLimit: 30_000_000, Coinbase: ProposerAddress(1, 0), BlockHash: c.blockHash}
	for _, tx := range txs[:warm] {
		if rec := c.applyTx(tx, blockCtx, nil); !rec.Succeeded() {
			t.Fatalf("warm-up transfer: %s", rec.Err)
		}
	}
	c.db.Commit()
	next := warm
	if n := testing.AllocsPerRun(runs, func() {
		if rec := c.applyTx(txs[next], blockCtx, nil); !rec.Succeeded() {
			t.Fatalf("transfer %d: %s", next, rec.Err)
		}
		next++
	}); n != 1 {
		t.Fatalf("applyTx of a transfer allocates %.1f objects, want 1 (its receipt)", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := c.StaticCall(kp.Address(), to, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("StaticCall allocates %.1f objects, want 0", n)
	}
}

// TestApplyEmptyBlockAllocations pins what ApplyBlock allocates around the
// block itself: an empty block with one OnBlock listener and one NotifyTx
// waiter for a transaction it does not hold. The listener and the waiter
// fire in two loops once the lock is released, with no closure around them.
func TestApplyEmptyBlockAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	c := newChain(t, ethConfig(1), nil, keys.Deterministic(1))
	blocks := 0
	c.OnBlock(func(*types.Block, []*types.Receipt) { blocks++ })
	c.NotifyTx(hashing.Hash{1}, func(*types.Receipt) { t.Fatal("waiter fired for a transaction no block holds") })
	proposer := ProposerAddress(1, 0)
	now := uint64(1)
	const runs = 100
	n := testing.AllocsPerRun(runs, func() {
		c.ApplyBlock(nil, now, proposer)
		now++
	})
	if blocks != runs+1 {
		t.Fatalf("listener fired %d times, want %d", blocks, runs+1)
	}
	// The header the chain keeps and the block its listeners get.
	if n != 2 {
		t.Fatalf("ApplyBlock of an empty block allocates %.1f objects, want 2", n)
	}
}
