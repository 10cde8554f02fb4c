package bench

import (
	"encoding/binary"

	"scmove/internal/chain"
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

// The breed contract: child = SLOAD(p1) + SLOAD(p2) + 1 stored at
// SSTORE(child), all three ids taken from calldata. A block of breeds is an
// explicit data DAG — generation g reads what generation g-1 wrote.
var (
	kittiesBreedAddr = hashing.AddressFromBytes([]byte{0xD7})
	kittiesBreedCode = asm.MustAssemble(
		"PUSH1 0 CALLDATALOAD SLOAD PUSH1 32 CALLDATALOAD SLOAD ADD PUSH1 1 ADD PUSH1 64 CALLDATALOAD SSTORE STOP")
)

const (
	kittiesDAGSenders = 129 // 128 breeders + 1 warmup account
	kittiesDAGFund    = 1_000_000_000_000
)

func kittiesBreedData(p1, p2, child uint64) []byte {
	data := make([]byte, 96)
	binary.BigEndian.PutUint64(data[24:32], p1)
	binary.BigEndian.PutUint64(data[56:64], p2)
	binary.BigEndian.PutUint64(data[88:96], child)
	return data
}

// BuildKittiesDAGChain constructs a chain with the breed contract and 64
// promo kitties (slots 1..64) in genesis and every breeder funded.
//
// Deprecated: both arguments are ignored — they selected a parallel executor
// that no longer exists. The signature stays because benchmark/layers.go:433
// calls it and benchmark/ was frozen in the PR that deleted the executors.
func BuildKittiesDAGChain(_ int, _ chain.ParallelStrategy) (*chain.Chain, error) {
	ccfg := chain.Config{
		ChainID:           1,
		TreeKind:          trie.KindMPT,
		Schedule:          evm.EthereumSchedule(),
		BlockGasLimit:     1_000_000_000,
		MaxBlockTxs:       kittiesDAGSenders,
		ConfirmationDepth: 6,
		PoolLimit:         kittiesDAGSenders,
	}
	return chain.New(ccfg, core.NewHeaderStore(), func(db *state.DB) {
		for s := 0; s < kittiesDAGSenders; s++ {
			db.AddBalance(keys.Deterministic(uint64(s+1)).Address(), u256.FromUint64(kittiesDAGFund))
		}
		db.CreateContract(kittiesBreedAddr, kittiesBreedCode)
		for i := uint64(1); i <= 64; i++ {
			var key, val evm.Word
			binary.BigEndian.PutUint64(key[24:32], i)
			binary.BigEndian.PutUint64(val[24:32], 1000+i)
			db.SetStorage(kittiesBreedAddr, key, val)
		}
	})
}

// BuildKittiesDAGTxs returns a one-transaction warmup block and the 4-generation × 32-breed tournament block:
// generation 1 breeds the genesis promo kitties pairwise, later generations
// breed the previous generation's children. 128 distinct senders, so only
// the data DAG orders the transactions.
func BuildKittiesDAGTxs() (warmup, dag []*types.Transaction, err error) {
	sign := func(sender uint64, data []byte) (*types.Transaction, error) {
		tx := &types.Transaction{
			ChainID:  1,
			Nonce:    0,
			Kind:     types.TxCall,
			To:       kittiesBreedAddr,
			GasLimit: 1_000_000,
			GasPrice: u256.FromUint64(2),
			Data:     data,
		}
		if err := tx.Sign(keys.Deterministic(sender)); err != nil {
			return nil, err
		}
		return types.DecodeTransaction(tx.Encode())
	}
	w, err := sign(1, kittiesBreedData(1, 2, 999))
	if err != nil {
		return nil, nil, err
	}
	warmup = []*types.Transaction{w}
	for gen := 1; gen <= 4; gen++ {
		for j := 0; j < 32; j++ {
			var p1, p2 uint64
			if gen == 1 {
				p1, p2 = uint64(2*j+1), uint64(2*j+2)
			} else {
				p1 = uint64(100*(gen-1) + j)
				p2 = uint64(100*(gen-1) + (j+1)%32)
			}
			tx, err := sign(uint64(2+32*(gen-1)+j), kittiesBreedData(p1, p2, uint64(100*gen+j)))
			if err != nil {
				return nil, nil, err
			}
			dag = append(dag, tx)
		}
	}
	return warmup, dag, nil
}
