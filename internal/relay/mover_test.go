package relay

import (
	"strings"
	"testing"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// TestTransientReceiptsAreRetried: the failures the Mover retries are
// recognised in the receipts a real chain writes for them — a proof height
// the light client does not know, one not yet p blocks deep, and a nonce the
// account is not at — and a forged proof, which no retry can cure, is not.
func TestTransientReceiptsAreRetried(t *testing.T) {
	kp := keys.Deterministic(1)
	src := core.ChainParams{ID: 10, TreeKind: trie.KindMPT, ConfirmationDepth: 2}
	hs := core.NewHeaderStore(src)
	cfg := chain.Config{ChainID: 2, TreeKind: trie.KindIAVL, Schedule: evm.BurrowSchedule(), MaxBlockTxs: 10, PoolLimit: 10}
	c, err := chain.New(cfg, hs, func(db *state.DB) { db.AddBalance(kp.Address(), u256.FromUint64(1<<50)) })
	if err != nil {
		t.Fatal(err)
	}
	// The source's heights 1 to 3 are known, with 3 the head: height 1 is
	// 2 blocks deep, height 2 only 1.
	headers := []*types.Header{{ChainID: 10, Height: 1}, {ChainID: 10, Height: 2}, {ChainID: 10, Height: 3}}
	if err := hs.Update(10, headers, 3); err != nil {
		t.Fatal(err)
	}
	move2 := func(nonce, height uint64) *types.Transaction {
		tx := &types.Transaction{
			ChainID: 2, Nonce: nonce, Kind: types.TxMove2, GasLimit: DefaultGasLimit, GasPrice: DefaultGasPrice,
			Move2: &types.Move2Payload{
				Contract: hashing.AddressFromBytes([]byte{0xc0}), SourceChain: 10, SourceHeight: height,
				AccountProof: []byte{1, 2, 3},
			},
		}
		if err := tx.Sign(kp); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	_, recs := c.ApplyBlock([]*types.Transaction{move2(0, 9), move2(1, 2), move2(7, 1), move2(2, 1)},
		1, chain.ProposerAddress(2, 0))
	for i, want := range []struct {
		err       error
		transient bool
	}{
		{core.ErrNoHeader, true},
		{core.ErrNotConfirmed, true},
		{chain.ErrBadNonce, true},
		{core.ErrBadProof, false},
	} {
		rec := recs[i]
		if rec.Succeeded() || !strings.Contains(rec.Err, want.err.Error()) {
			t.Fatalf("receipt %d: %q, want a failure with %q", i, rec.Err, want.err)
		}
		if got := transientMove2(rec.Err); got != want.transient {
			t.Errorf("receipt %q: transient %v, want %v", rec.Err, got, want.transient)
		}
		if got := badNonce(rec.Err); got != (want.err == chain.ErrBadNonce) {
			t.Errorf("receipt %q: bad nonce %v", rec.Err, got)
		}
	}
	if want := "bad nonce 7, account at 2"; recs[2].Err != want {
		t.Errorf("nonce receipt %q, want %q", recs[2].Err, want)
	}
}
