package chain

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/journal"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// Pre-deployed fuzz contracts. rmw is maximally conflicting: every call
// read-modify-writes slot 0. disjoint writes a caller-keyed slot, so calls
// from different senders never conflict. boom self-destructs on first call
// (later calls hit a code-less account and degrade to transfers).
var (
	fuzzRMWAddr      = hashing.AddressFromBytes([]byte{0xC1})
	fuzzDisjointAddr = hashing.AddressFromBytes([]byte{0xC2})
	fuzzBoomAddr     = hashing.AddressFromBytes([]byte{0xC3})

	fuzzRMWCode      = asm.MustAssemble("PUSH1 0 SLOAD PUSH1 1 ADD PUSH1 0 SSTORE STOP")
	fuzzDisjointCode = asm.MustAssemble("PUSH1 0 CALLDATALOAD CALLER SSTORE STOP")
	fuzzBoomCode     = asm.MustAssemble("CALLER SELFDESTRUCT")
)

func fuzzSenders() []*keys.KeyPair {
	kps := make([]*keys.KeyPair, 8)
	for i := range kps {
		kps[i] = keys.Deterministic(uint64(i + 1))
	}
	return kps
}

// buildFuzzTraffic deterministically generates ~120 transactions — valid
// transfers (some to the coinbase), conflicting and disjoint contract calls,
// creates, self-destruct calls, bad nonces, underfunded value sends, forged
// senders, and duplicated pointers — then chunks them into random block
// batches including empty ones. Every transaction is decoded from its wire
// form, which must give back every field, so no run inherits memoized
// senders, and duplicate pointers stay duplicates.
func buildFuzzTraffic(t *testing.T, seed int64, chainID hashing.ChainID) [][]*types.Transaction {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kps := fuzzSenders()
	nonces := make([]uint64, len(kps))

	var txs []*types.Transaction
	push := func(tx *types.Transaction) {
		dec, err := types.DecodeTransaction(tx.Encode())
		if err != nil {
			t.Fatal(err)
		}
		again, err := types.DecodeTransaction(dec.Encode())
		if err != nil {
			t.Fatal(err)
		}
		requireRoundTrip(t, again, dec)
		txs = append(txs, dec)
	}

	for len(txs) < 120 {
		s := rng.Intn(len(kps))
		kp := kps[s]
		switch rng.Intn(12) {
		case 0, 1: // plain transfer
			to := hashing.AddressFromBytes([]byte{byte(rng.Intn(20) + 1)})
			push(signedCall(t, kp, chainID, nonces[s], to, nil, uint64(rng.Intn(500)+1)))
			nonces[s]++
		case 2: // transfer straight to the coinbase, which every fee credit also touches
			push(signedCall(t, kp, chainID, nonces[s], ProposerAddress(chainID, 0), nil, uint64(rng.Intn(100)+1)))
			nonces[s]++
		case 3, 4: // read-modify-write on the shared slot
			push(signedCall(t, kp, chainID, nonces[s], fuzzRMWAddr, nil, 0))
			nonces[s]++
		case 5, 6: // caller-keyed disjoint write
			var data [32]byte
			data[31] = byte(rng.Intn(200) + 1)
			push(signedCall(t, kp, chainID, nonces[s], fuzzDisjointAddr, data[:], 0))
			nonces[s]++
		case 7: // bad nonce: fails before charging
			push(signedCall(t, kp, chainID, nonces[s]+7, hashing.AddressFromBytes([]byte{9}), nil, 1))
		case 8: // insufficient funds for value
			push(signedCall(t, kp, chainID, nonces[s], hashing.AddressFromBytes([]byte{9}), nil, 10*fund))
		case 9: // forged sender: authentication failure path
			push(forgedFromTx(t, kp, chainID))
		case 10: // contract creation
			tx := &types.Transaction{
				ChainID:  chainID,
				Nonce:    nonces[s],
				Kind:     types.TxCreate,
				GasLimit: 1_000_000,
				GasPrice: u256.FromUint64(2),
				Data:     asm.MustAssemble("PUSH1 7 PUSH1 3 SSTORE STOP"),
			}
			if err := tx.Sign(kp); err != nil {
				t.Fatal(err)
			}
			push(tx)
			nonces[s]++
		case 11: // SELFDESTRUCT target
			push(signedCall(t, kp, chainID, nonces[s], fuzzBoomAddr, nil, uint64(rng.Intn(10))))
			nonces[s]++
		}
		if len(txs) > 0 && rng.Intn(10) == 0 {
			// Duplicate pointer: same *Transaction twice in the stream. The
			// second execution sees a consumed nonce and fails.
			txs = append(txs, txs[len(txs)-1])
		}
	}

	var blocks [][]*types.Transaction
	for i := 0; i < len(txs); {
		n := rng.Intn(13) // 0..12: empty, small, and full batches
		if i+n > len(txs) {
			n = len(txs) - i
		}
		blocks = append(blocks, txs[i:i+n])
		i += n
	}
	return blocks
}

// runFuzzChain replays the block stream on a fresh chain (observer attached,
// so the observability hooks run too) and returns its journal: a line per
// block, then the state root after the last one (a Burrow-like header
// carries the root before its block).
func runFuzzChain(t *testing.T, cfg Config, blocks [][]*types.Transaction) *journal.Journal {
	t.Helper()
	kps := fuzzSenders()
	c := newChain(t, cfg, nil, kps[0])
	db := c.StateDB()
	for _, kp := range kps[1:] {
		db.AddBalance(kp.Address(), u256.FromUint64(fund))
	}
	db.CreateContract(fuzzRMWAddr, fuzzRMWCode)
	db.CreateContract(fuzzDisjointAddr, fuzzDisjointCode)
	db.CreateContract(fuzzBoomAddr, fuzzBoomCode)
	db.Commit()
	zero := func() time.Duration { return 0 }
	c.SetObserver(metrics.NewRegistry(), zero)

	j := journal.Journal{Now: zero}
	for i, blk := range blocks {
		j.Block(c.ApplyBlock(blk, uint64(1000+i), ProposerAddress(cfg.ChainID, 0)))
	}
	root, _ := c.RootAt(c.Head().Height)
	j.Tail("root", fmt.Sprintf("%x", root))
	return &j
}

// fuzzTrafficJournals are the digests of the fuzz traffic's journals per
// tree kind and seed.
var fuzzTrafficJournals = map[string]string{
	"mpt/1":  "91c6abfb0cae2ca8745c7ff7336febf7e7e610dd7c2e8700ff3baddf85085643",
	"mpt/2":  "bc7e36a8b4153bf477b79038e63b19723bd358305a3f59ee6101a5c1e3343a7b",
	"mpt/3":  "c0ed50c7147a69bcca4b90a73475d21fd8e02786a2b8544a6d006b6b04531bed",
	"iavl/1": "f4891a370e8b8b536b5a73e5a226db6833b214577a0d9d224bf4365dfbdfb049",
	"iavl/2": "6539894fac09dc35f7c03a6a9496584f5826fd1702866c5096368fb45f3f95cb",
	"iavl/3": "2194a375f322ed8a806da76f85c2a88af4f237fddae241a74c464ec5dc8c4876",
}

// TestApplyBlockFuzzTraffic replays randomized traffic — conflicts,
// failures, forgeries, duplicates, self-destructs, creates, chaotic block
// sizes — and requires the same journal (roots, header hashes and
// receipts) at every GOMAXPROCS (sender pre-recovery fans out), hashing to
// the pinned digest: a change to what any transaction does to state or
// reports in its receipt fails here, not only in an end-to-end cell.
func TestApplyBlockFuzzTraffic(t *testing.T) {
	for _, cfgOf := range []func(hashing.ChainID) Config{ethConfig, burrowConfig} {
		cfg := cfgOf(1)
		name := cfg.TreeKind.String()
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprint(seed), func(t *testing.T) {
					var first *journal.Journal
					for _, procs := range []int{1, 2, 4, runtime.NumCPU()} {
						prev := runtime.GOMAXPROCS(procs)
						j := runFuzzChain(t, cfg, buildFuzzTraffic(t, seed, cfg.ChainID))
						runtime.GOMAXPROCS(prev)
						first = journal.Same(t, fmt.Sprintf("GOMAXPROCS=1 and %d", procs), first, j)
					}
					first.Check(t, fuzzTrafficJournals[fmt.Sprintf("%s/%d", name, seed)])
				})
			}
		})
	}
}

// TestApplyBlockEmptyFastPath: an empty batch must still commit a block
// (possibly with an unchanged root).
func TestApplyBlockEmptyFastPath(t *testing.T) {
	c := newChain(t, ethConfig(1), nil, keys.Deterministic(1))
	c.SetObserver(metrics.NewRegistry(), func() time.Duration { return 0 })
	root0, _ := c.RootAt(0)

	block, receipts := c.ApplyBlock(nil, 100, ProposerAddress(1, 0))
	if len(receipts) != 0 {
		t.Fatalf("empty block produced receipts: %+v", receipts)
	}
	if block.Header.Height != 1 || block.Header.GasUsed != 0 {
		t.Fatalf("header %+v", block.Header)
	}
	if root, _ := c.RootAt(1); root != root0 {
		t.Fatal("empty block must not change state")
	}
}
