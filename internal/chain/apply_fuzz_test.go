package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
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
// so the observability hooks run too) and returns every commit root, header
// hash, and receipt.
func runFuzzChain(t *testing.T, cfg Config, blocks [][]*types.Transaction) ([]hashing.Hash, []hashing.Hash, []*types.Receipt) {
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
	c.SetObserver(metrics.NewRegistry(), func() time.Duration { return 0 })

	var roots, headers []hashing.Hash
	var receipts []*types.Receipt
	for i, blk := range blocks {
		b, recs := c.ApplyBlock(blk, uint64(1000+i), ProposerAddress(cfg.ChainID, 0))
		root, _ := c.RootAt(b.Header.Height)
		roots = append(roots, root)
		headers = append(headers, b.Header.Hash())
		receipts = append(receipts, recs...)
	}
	return roots, headers, receipts
}

// fuzzDigest folds every root, header hash and receipt field of a run —
// status, gas, created address, error text, and each log's address, topics
// and data — into one hash, each variable-length part length-prefixed.
func fuzzDigest(roots, headers []hashing.Hash, receipts []*types.Receipt) string {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	blob := func(b []byte) {
		u64(uint64(len(b)))
		h.Write(b)
	}
	u64(uint64(len(roots)))
	for i := range roots {
		h.Write(roots[i][:])
		h.Write(headers[i][:])
	}
	u64(uint64(len(receipts)))
	for _, rec := range receipts {
		h.Write(rec.TxID[:])
		u64(uint64(rec.Status))
		u64(rec.GasUsed)
		h.Write(rec.Created[:])
		blob([]byte(rec.Err))
		u64(uint64(len(rec.Logs)))
		for _, l := range rec.Logs {
			h.Write(l.Address[:])
			u64(uint64(len(l.Topics)))
			for _, topic := range l.Topics {
				h.Write(topic[:])
			}
			blob(l.Data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fuzzTrafficDigests are fuzzDigest of the fuzz traffic per tree kind and
// seed, computed at the last commit that still had the parallel executors
// (eca7487, where all three engines agreed on them).
var fuzzTrafficDigests = map[string]string{
	"mpt/1":  "f2ce9259a517e48ef0dd9acf9afac9418d85853ecd775cd6ee4353247efbd855",
	"mpt/2":  "9ea88f4a9a0a792eb01dd12c99bfc966e2017f6f08458473fdb734d873204071",
	"mpt/3":  "86d884bcb4efd13f756fd8810c18a81bba0173eb8eae426742259dd73f722020",
	"iavl/1": "854b284a73f42a89e883e4636c925044c8144ab8ae76a2f93e31441e8459cb07",
	"iavl/2": "a2113e0936651d532780cb6a5853c7c6fe16e0db813504f49f148b20cc9f9c86",
	"iavl/3": "42837d3772c2b1d7a79ded6f9e939bbd317cb93a7066d70cb2add5ae5707133b",
}

// TestApplyBlockFuzzTraffic replays randomized traffic — conflicts,
// failures, forgeries, duplicates, self-destructs, creates, chaotic block
// sizes — and requires bit-identical roots, header hashes and receipts at
// every GOMAXPROCS (sender pre-recovery fans out), and equal to the pinned
// digest: a change to what any transaction does to state or reports in its
// receipt fails here, not only in an end-to-end fingerprint.
func TestApplyBlockFuzzTraffic(t *testing.T) {
	for _, cfgOf := range []func(hashing.ChainID) Config{ethConfig, burrowConfig} {
		cfg := cfgOf(1)
		name := cfg.TreeKind.String()
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				var wantRoots, wantHeaders []hashing.Hash
				var wantRecs []*types.Receipt
				for i, procs := range []int{1, 2, 4, runtime.NumCPU()} {
					prev := runtime.GOMAXPROCS(procs)
					roots, headers, recs := runFuzzChain(t, cfg, buildFuzzTraffic(t, seed, cfg.ChainID))
					runtime.GOMAXPROCS(prev)
					if i == 0 {
						wantRoots, wantHeaders, wantRecs = roots, headers, recs
						continue
					}
					if !reflect.DeepEqual(roots, wantRoots) {
						t.Fatalf("seed %d GOMAXPROCS=%d: state roots diverge", seed, procs)
					}
					if !reflect.DeepEqual(headers, wantHeaders) {
						t.Fatalf("seed %d GOMAXPROCS=%d: header hashes diverge", seed, procs)
					}
					if !reflect.DeepEqual(recs, wantRecs) {
						t.Fatalf("seed %d GOMAXPROCS=%d: receipts diverge", seed, procs)
					}
				}
				key := fmt.Sprintf("%s/%d", name, seed)
				if got := fuzzDigest(wantRoots, wantHeaders, wantRecs); got != fuzzTrafficDigests[key] {
					t.Fatalf("%s: digest %s, pinned %s", key, got, fuzzTrafficDigests[key])
				}
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
