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
