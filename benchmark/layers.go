package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"scmove/internal/bench"
	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/simnet"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/trie"
	"scmove/internal/txpool"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// The layer probes time calls into the packages' public functions from the
// outside, on one goroutine, with fixed iteration counts. They are the same
// on every workload, so a traced run of any workload reports them all; each
// is a median of five batches, which is enough to rank layers and to show a
// layer's own change, not to gate on (per-layer metrics carry no bound).

// prober collects probe results; the first error stops the rest.
type prober struct {
	tr   *tracer
	vals map[string]float64
	err  error
}

// nsPerOp times n calls of fn in five batches and returns the median batch
// mean, in nanoseconds.
func nsPerOp(n int, fn func(i int)) float64 {
	const batches = 5
	per := max(n/batches, 1)
	means := make([]float64, 0, batches)
	i := 0
	for b := 0; b < batches; b++ {
		start := time.Now()
		for k := 0; k < per; k++ {
			fn(i)
			i++
		}
		means = append(means, float64(time.Since(start).Nanoseconds())/float64(per))
	}
	return median(means)
}

// probe runs one probe inside a span and stores its value under name.
func (p *prober) probe(name string, fn func() (float64, error)) {
	if p.err != nil {
		return
	}
	runtime.GC() // each probe starts from a collected heap, whatever ran before it
	start := time.Now()
	v, err := fn()
	p.tr.add(0, 0, "probe."+name, start, time.Now())
	if err != nil {
		p.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	p.vals[name] = v
}

// signedTransfers returns n unit transfers from `senders` probe accounts,
// signed on the shared pool, in per-sender nonce order.
func signedTransfers(chainID hashing.ChainID, senders, n int) ([]*types.Transaction, error) {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		tx := unitTransfer(chainID, uint64(i/senders))
		tx.SignOn(rpcUserKey(i%senders), keys.SharedPool())
		txs[i] = tx
	}
	for _, tx := range txs {
		if err := tx.WaitSig(); err != nil {
			return nil, err
		}
	}
	return txs, nil
}

// freshCopies re-decodes transactions from wire form, as consensus hands
// them to ApplyBlock: no per-object sender memo.
func freshCopies(txs []*types.Transaction) ([]*types.Transaction, error) {
	out := make([]*types.Transaction, len(txs))
	for i, tx := range txs {
		c, err := types.DecodeTransaction(tx.Encode())
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// transferChain is a stand-alone Burrow-like chain with the front-door
// workloads' genesis.
func transferChain(users int) (*chain.Chain, error) {
	spec := rpcUniverseConfig(rpcParams{shards: 1, validators: 1, users: users,
		interval: 200 * time.Millisecond, blockTxs: 5000}).Specs[0]
	genesis := rpcGenesis(users)
	return chain.New(spec.Config, core.NewHeaderStore(spec.Config.Params()), func(db *state.DB) {
		genesis(spec.Config.ChainID, db)
	})
}

func runProbes(o options, tr *tracer, vals map[string]float64) error {
	p := &prober{tr: tr, vals: vals}
	scale := 1
	if o.smoke {
		scale = 8 // same probes, an eighth of the iterations
	}
	p.hashingAndTrees(scale)
	p.cryptoAndPool(scale)
	p.chainProbes(scale)
	p.evmProbes(scale)
	p.stateProbes(o, scale)
	p.universeProbes(scale)
	p.tcpProbe()
	if p.err == nil {
		p.moveProbes(o)
	}
	return p.err
}

func (p *prober) hashingAndTrees(scale int) {
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = byte(i)
	}
	p.probe("hashing.sum512_ns", func() (float64, error) {
		return nsPerOp(20_000/scale, func(int) { hashing.Sum(buf) }), nil
	})
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		tree := trees.MustNew(kind, 32)
		const entries = 4096
		key := func(i int) []byte {
			var k [32]byte
			binary.BigEndian.PutUint64(k[:8], uint64(i%entries)*0x9e3779b97f4a7c15)
			return k[:]
		}
		for i := 0; i < entries; i++ {
			k := key(i)
			if err := tree.Set(k, k[:8]); err != nil {
				p.err = err
				return
			}
		}
		tree.RootHash()
		name := kind.String()
		p.probe(name+".get_ns", func() (float64, error) {
			return nsPerOp(100_000/scale, func(i int) { tree.Get(key(i * 7)) }), nil
		})
		p.probe(name+".prove_us", func() (float64, error) {
			var err error
			ns := nsPerOp(500/scale, func(i int) {
				if _, e := tree.Prove(key(i * 7)); e != nil {
					err = e
				}
			})
			return ns / 1e3, err
		})
		p.probe(name+".set_ns", func() (float64, error) {
			val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
			var err error
			ns := nsPerOp(20_000/scale, func(i int) {
				if e := tree.Set(key(i*7), val); e != nil {
					err = e
				}
			})
			return ns, err
		})
	}
}

func (p *prober) cryptoAndPool(scale int) {
	n := 1024 / scale
	const senders = 16
	var txs []*types.Transaction
	p.probe("keys.sign_us", func() (float64, error) {
		kp := rpcUserKey(0)
		digest := hashing.Sum([]byte("probe"))
		var err error
		ns := nsPerOp(200/scale, func(int) {
			if _, e := kp.Sign(digest); e != nil {
				err = e
			}
		})
		return ns / 1e3, err
	})
	p.probe("keys.verify_batch64_us_per_sig", func() (float64, error) {
		digests := make([]hashing.Hash, 64)
		sigs := make([]keys.Signature, 64)
		for i := range sigs {
			digests[i] = hashing.Sum([]byte{byte(i)})
			sig, err := rpcUserKey(i).Sign(digests[i])
			if err != nil {
				return 0, err
			}
			sigs[i] = sig
		}
		var err error
		ns := nsPerOp(5, func(int) {
			_, errs := keys.VerifyBatch(digests, sigs)
			for _, e := range errs {
				if e != nil {
					err = e
				}
			}
		})
		return ns / 64 / 1e3, err
	})
	p.probe("types.decode_tx_ns", func() (float64, error) {
		var err error
		txs, err = signedTransfers(1, senders, n)
		if err != nil {
			return 0, err
		}
		enc := txs[0].Encode()
		return nsPerOp(20_000/scale, func(int) {
			if _, e := types.DecodeTransaction(enc); e != nil {
				err = e
			}
		}), err
	})
	recover := func(name string, div float64, cold bool) {
		p.probe(name, func() (float64, error) {
			copies, err := freshCopies(txs)
			if err != nil {
				return 0, err
			}
			if cold {
				types.SetSenderCacheCapacity(0) // empties the process-wide cache
			}
			ns := nsPerOp(len(copies), func(i int) {
				if _, e := copies[i].Sender(); e != nil {
					err = e
				}
			})
			return ns / div, err
		})
	}
	recover("types.recover_cold_us", 1e3, true)
	recover("types.recover_hit_ns", 1, false)

	p.probe("txpool.add_ns", func() (float64, error) {
		pool := txpool.New(1, 100_000)
		var err error
		ns := nsPerOp(len(txs), func(i int) { // signer-side objects: sender already memoized
			if e := pool.Add(txs[i]); e != nil {
				err = e
			}
		})
		return ns, err
	})
	p.probe("txpool.add_batch_ns_per_tx", func() (float64, error) {
		copies, err := freshCopies(txs)
		if err != nil {
			return 0, err
		}
		pool := txpool.New(1, 100_000)
		start := time.Now()
		for _, e := range pool.AddBatch(copies) {
			if e != nil {
				err = e
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(copies)), err
	})
	p.probe("txpool.next_batch_us_per_ktx", func() (float64, error) {
		pool := txpool.New(1, 100_000)
		for _, tx := range txs {
			if err := pool.Add(tx); err != nil {
				return 0, err
			}
		}
		var got int
		ns := nsPerOp(50/scale+5, func(int) {
			got = len(pool.NextBatch(5000, func(hashing.Address) uint64 { return 0 }))
		})
		if got != len(txs) {
			return 0, fmt.Errorf("NextBatch selected %d of %d", got, len(txs))
		}
		return ns / 1e3 / (float64(got) / 1000), nil
	})
}

func (p *prober) chainProbes(scale int) {
	n := 1024 / scale
	const users = 16
	txs, err := signedTransfers(1, users, n)
	if err != nil {
		p.err = err
		return
	}
	var c *chain.Chain
	applyOnce := func() (time.Duration, error) {
		copies, err := freshCopies(txs)
		if err != nil {
			return 0, err
		}
		c, err = transferChain(users)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, receipts := c.ApplyBlock(copies, 100, chain.ProposerAddress(1, 0))
		d := time.Since(start)
		for _, rec := range receipts {
			if !rec.Succeeded() {
				return 0, fmt.Errorf("transfer failed: %s", rec.Err)
			}
		}
		return d, nil
	}
	p.probe("chain.apply_transfer_us_per_tx", func() (float64, error) {
		var ds []float64
		for r := 0; r < 3; r++ {
			d, err := applyOnce()
			if err != nil {
				return 0, err
			}
			ds = append(ds, us(d)/float64(n))
		}
		return median(ds), nil
	})
	if p.err != nil {
		return
	}
	// c now holds one applied block of n transfers.
	p.probe("chain.query_account_ns", func() (float64, error) {
		addr := rpcUserKey(3).Address()
		return nsPerOp(20_000/scale, func(int) { c.QueryAccount(addr) }), nil
	})
	p.probe("chain.receipt_ns", func() (float64, error) {
		id := txs[n/2].ID()
		return nsPerOp(20_000/scale, func(int) { c.Receipt(id) }), nil
	})
	p.probe("chain.propose_batch_us", func() (float64, error) {
		fresh, err := transferChain(users)
		if err != nil {
			return 0, err
		}
		for _, e := range fresh.SubmitTxs(txs) {
			if e != nil {
				return 0, e
			}
		}
		var got int
		ns := nsPerOp(25/scale+5, func(int) { got = len(fresh.ProposeBatch()) })
		if got != n {
			return 0, fmt.Errorf("ProposeBatch selected %d of %d", got, n)
		}
		return ns / 1e3, nil
	})
	p.probe("chain.read_under_write_p99_us", func() (float64, error) {
		// One goroutine applies blocks of n/8 transfers with 2 ms pauses
		// (five fresh chains, eight blocks each) while this one reads an
		// account. Transfers are dealt round-robin over the senders, so every
		// eighth of them keeps nonces dense.
		var cur atomic.Pointer[chain.Chain]
		first, err := transferChain(users)
		if err != nil {
			return 0, err
		}
		cur.Store(first)
		done := make(chan error, 1)
		go func() {
			for rep := 0; rep < 5; rep++ {
				copies, err := freshCopies(txs)
				if err != nil {
					done <- err
					return
				}
				w, err := transferChain(users)
				if err != nil {
					done <- err
					return
				}
				cur.Store(w)
				per := n / 8
				for b := 0; b < 8; b++ {
					w.ApplyBlock(copies[b*per:(b+1)*per], uint64(100+b), chain.ProposerAddress(1, 0))
					sleepUntil(time.Now().Add(2 * time.Millisecond))
				}
			}
			done <- nil
		}()
		// Reads are due every 0.1 ms and timed from their due time, so a read
		// that waits behind a block delays (and counts against) the ones due
		// meanwhile, as in the open-loop workload.
		addr := rpcUserKey(5).Address()
		var lat []float64
		start := time.Now()
		for k := 0; ; k++ {
			select {
			case err := <-done:
				v, _ := tail(lat, 0.99)
				return v, err
			default:
				due := start.Add(time.Duration(k) * 100 * time.Microsecond)
				sleepUntil(due)
				cur.Load().QueryAccount(addr)
				lat = append(lat, us(time.Since(due)))
			}
		}
	})

	// The Kitties-DAG block of internal/bench: 128 breeds in four
	// generations, under the default strategy and under the serial loop.
	p.probe("chain.apply_contract_us_per_tx", func() (float64, error) {
		warmup, dag, err := bench.BuildKittiesDAGTxs()
		if err != nil {
			return 0, err
		}
		leg := func(threshold int) (float64, hashing.Hash, error) {
			var ds []float64
			var root hashing.Hash
			for r := 0; r < 3; r++ {
				c, err := bench.BuildKittiesDAGChain(threshold, chain.StrategyScheduled)
				if err != nil {
					return 0, root, err
				}
				c.ApplyBlock(warmup, 100, chain.ProposerAddress(1, 0))
				start := time.Now()
				block, receipts := c.ApplyBlock(dag, 101, chain.ProposerAddress(1, 0))
				ds = append(ds, us(time.Since(start))/float64(len(dag)))
				for _, rec := range receipts {
					if !rec.Succeeded() {
						return 0, root, fmt.Errorf("breed failed: %s", rec.Err)
					}
				}
				root, _ = c.RootAt(block.Header.Height)
			}
			return median(ds), root, nil
		}
		def, defRoot, err := leg(0)
		if err != nil {
			return 0, err
		}
		serial, serialRoot, err := leg(-1)
		if err != nil {
			return 0, err
		}
		if defRoot != serialRoot {
			return 0, fmt.Errorf("default strategy root %s != serial %s", defRoot, serialRoot)
		}
		p.vals["chain.apply_serial_ratio"] = def / serial
		return def, nil
	})
}

func (p *prober) evmProbes(scale int) {
	p.probe("evm.loop_ns_per_op", func() (float64, error) {
		// The tight loop of cmd/benchsnap: 100 iterations of 14 opcodes.
		code := asm.MustAssemble(`
			PUSH1 0
			PUSH1 100
		@loop:
			JUMPDEST
			DUP1
			ISZERO
			PUSH @done
			JUMPI
			DUP1
			SWAP2
			ADD
			SWAP1
			PUSH1 1
			SWAP1
			SUB
			PUSH @loop
			JUMP
		@done:
			JUMPDEST
			POP
			PUSH1 0
			MSTORE
			PUSH1 32
			PUSH1 0
			RETURN
		`)
		const opsPerCall = 2 + 100*14 + 5 + 7
		db, err := state.NewDB(1, trie.KindMPT)
		if err != nil {
			return 0, err
		}
		var origin, contract hashing.Address
		origin[0], contract[0] = 0xee, 0xcc
		db.AddBalance(origin, u256.FromUint64(1_000_000))
		db.CreateContract(contract, code)
		block := evm.BlockContext{ChainID: 1, Number: 10, Time: 1_000_000, GasLimit: 30_000_000}
		e := evm.New(evm.EthereumSchedule(), db, block, evm.TxContext{Origin: origin}, nil)
		ns := nsPerOp(2000/scale, func(int) {
			if _, _, e := e.Call(origin, contract, nil, u256.Zero(), 10_000_000); e != nil {
				err = e
			}
		})
		return ns / opsPerCall, err
	})
	p.probe("contracts.kitties_call_us", func() (float64, error) {
		// createPromoKitty through ApplyBlock on a stand-alone Burrow-like
		// chain with the registry in genesis: the native call Fig. 5 is made of.
		owner := universe.ClientKey(0)
		registry := contracts.WellKnown("kitties-registry")
		spec := universe.BurrowSpec(1, contracts.NewRegistry(), 1)
		c, err := chain.New(spec.Config, core.NewHeaderStore(spec.Config.Params()), func(db *state.DB) {
			db.AddBalance(owner.Address(), u256.FromUint64(1<<60))
			contracts.GenesisKittyRegistry(db, registry, owner.Address())
		})
		if err != nil {
			return 0, err
		}
		n := 64 / scale
		txs := make([]*types.Transaction, n)
		for i := range txs {
			var genes evm.Word
			genes[31] = byte(i + 1)
			txs[i] = &types.Transaction{
				ChainID: 1, Nonce: uint64(i), Kind: types.TxCall, To: registry,
				GasLimit: 40_000_000, GasPrice: u256.Zero(),
				Data: contracts.EncodeCall("createPromoKitty", contracts.ArgWord(genes), contracts.ArgAddress(owner.Address())),
			}
			if err := txs[i].Sign(owner); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		_, receipts := c.ApplyBlock(txs, 100, chain.ProposerAddress(1, 0))
		d := time.Since(start)
		for _, rec := range receipts {
			if !rec.Succeeded() {
				return 0, fmt.Errorf("createPromoKitty failed: %s", rec.Err)
			}
		}
		return us(d) / float64(n), nil
	})
}

func (p *prober) stateProbes(o options, scale int) {
	base := bench.StateDBConfig{Accounts: 2048 / scale, Contracts: 256 / scale, SlotsPerAccount: 4, BlockAccounts: 1024}
	tmp := func() (string, func(), error) {
		if err := os.MkdirAll(o.workDir, 0o755); err != nil {
			return "", nil, err
		}
		dir, err := os.MkdirTemp(o.workDir, "probe-state-*")
		return dir, func() { os.RemoveAll(dir) }, err
	}
	commit := func(name string, kind backend.Kind) {
		p.probe(name, func() (float64, error) {
			cfg := base
			if kind == backend.KindFile {
				dir, cleanup, err := tmp()
				if err != nil {
					return 0, err
				}
				defer cleanup()
				cfg.Options = state.Options{Backend: kind, Dir: dir}
			}
			db, err := bench.BuildStateDB(cfg)
			if err != nil {
				return 0, err
			}
			defer db.Close()
			const touches = 256
			ns := nsPerOp(15, func(i int) { bench.MutateStateBlock(db, cfg, i+1, touches) })
			return ns / 1e3 / float64(min(touches, cfg.Accounts)), nil
		})
	}
	commit("state.commit_mem_us_per_dirty", backend.KindMemory)
	commit("state.commit_file_us_per_dirty", backend.KindFile)

	read := func(name string, disableFlat bool) {
		p.probe(name, func() (float64, error) {
			cfg := base
			cfg.Options.DisableFlatCache = disableFlat
			db, err := bench.BuildStateDB(cfg)
			if err != nil {
				return 0, err
			}
			defer db.Close()
			var key [32]byte
			binary.BigEndian.PutUint64(key[24:], 1)
			hot := min(256, cfg.Contracts)
			addrs := make([]hashing.Address, hot)
			for i := range addrs {
				addrs[i] = bench.StateBenchAddr(i)
				db.GetStorage(addrs[i], key)
			}
			var empty bool
			ns := nsPerOp(100_000/scale, func(i int) {
				if db.GetStorage(addrs[i%hot], key) == ([32]byte{}) {
					empty = true
				}
			})
			if empty {
				return 0, fmt.Errorf("read an empty slot")
			}
			return ns, nil
		})
	}
	read("state.flat_warm_read_ns", false)
	read("state.tree_read_ns", true)

	p.probe("state.rebuild_tree_us_per_kslot", func() (float64, error) {
		// Two 1000-slot contracts, one resident storage tree: each write to
		// the evicted one rebuilds its tree from the file backend.
		dir, cleanup, err := tmp()
		if err != nil {
			return 0, err
		}
		defer cleanup()
		db, err := state.NewDBWith(1, trie.KindMPT, state.Options{Backend: backend.KindFile, Dir: dir, StorageTreeLimit: 1})
		if err != nil {
			return 0, err
		}
		defer db.Close()
		slots := 1000 / scale
		pair := [2]hashing.Address{bench.StateBenchAddr(1), bench.StateBenchAddr(2)}
		slot := func(i int) (k, v [32]byte) {
			binary.BigEndian.PutUint64(k[24:], uint64(i+1))
			binary.BigEndian.PutUint64(v[24:], uint64(i+7))
			return
		}
		var before int64
		for n, a := range pair {
			db.CreateContract(a, []byte{0x00})
			if n == 1 {
				live, _ := db.Backend().(*backend.File).SegmentBytes()
				before = live
			}
			for i := 0; i < slots; i++ {
				k, v := slot(i)
				db.SetStorage(a, k, v)
			}
			db.Commit()
		}
		live, _ := db.Backend().(*backend.File).SegmentBytes()
		p.vals["backend.file_bytes_per_slot"] = float64(live-before) / float64(slots)
		ns := nsPerOp(10, func(i int) {
			k, _ := slot(0)
			var v [32]byte
			binary.BigEndian.PutUint64(v[24:], uint64(i+100))
			db.SetStorage(pair[i%2], k, v)
			db.Commit()
		})
		return ns / 1e3 / (float64(slots) / 1000), nil
	})
}

func (p *prober) universeProbes(scale int) {
	chains := 16 / min(scale, 4)
	users := 500 * chains
	build := func(users int) (time.Duration, error) {
		start := time.Now()
		u, err := universe.New(universe.ShardedScaleConfig(chains, 4, users))
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		return d, u.Close()
	}
	var bare time.Duration
	p.probe("universe.new_ms_per_chain", func() (float64, error) {
		var err error
		bare, err = build(0)
		return ms(bare) / float64(chains), err
	})
	p.probe("universe.genesis_users_per_s", func() (float64, error) {
		funded, err := build(users)
		if err != nil {
			return 0, err
		}
		return float64(users) / max(funded-bare, time.Millisecond).Seconds(), nil
	})
	p.probe("core.header_update_ns", func() (float64, error) {
		hs := core.NewHeaderStore(core.ChainParams{ID: 2, TreeKind: trie.KindIAVL, ConfirmationDepth: 2})
		var err error
		ns := nsPerOp(20_000/scale, func(i int) {
			h := &types.Header{ChainID: 2, Height: uint64(i + 1)}
			if e := hs.Update(2, []*types.Header{h}, h.Height); e != nil {
				err = e
			}
		})
		return ns, err
	})
}

// bytesCodec carries raw byte payloads over the TCP transport.
type bytesCodec struct{}

func (bytesCodec) EncodePayload(p any) ([]byte, error) { return p.([]byte), nil }
func (bytesCodec) DecodePayload(b []byte) (any, error) { return b, nil }

// tcpProbe sends frames between two nodes of a stand-alone simnet.TCP and
// reads its rejected-frame counter. The live universes' own transport has
// no accessor (see README.md, findings), so this is the reachable stand-in.
func (p *prober) tcpProbe() {
	p.probe("simnet.tcp_rejected", func() (float64, error) {
		t := simnet.NewTCP(bytesCodec{}, nil, 0)
		defer t.Close()
		got := make(chan struct{}, 256)
		if err := t.Register(1, 0, func(simnet.NodeID, any) {}); err != nil {
			return 0, err
		}
		if err := t.Register(2, 0, func(simnet.NodeID, any) { got <- struct{}{} }); err != nil {
			return 0, err
		}
		const frames = 64
		payload := make([]byte, 4096)
		for i := 0; i < frames; i++ {
			t.Send(1, 2, payload)
		}
		deadline := time.After(5 * time.Second)
		for i := 0; i < frames; i++ {
			select {
			case <-got:
			case <-deadline:
				return 0, fmt.Errorf("%d of %d frames delivered", i, frames)
			}
		}
		_, _, _, rejected := t.Stats()
		return float64(rejected), nil
	})
}

// replayBlocks is how many observed blocks the transaction layer replay
// pushes through the layers.
const replayBlocks = 20

// replayTxLayers takes the first blocks a live chain committed — real
// inputs, in an order that is valid from genesis — and, on one goroutine,
// pushes every transaction through the layers' public functions in pipeline
// order with a span per call: decode, sender recovery (cache emptied
// first), pool admission, then per block proposal, ApplyBlock, and per
// transaction the receipt lookup. It returns the median per layer in
// microseconds.
func replayTxLayers(tr *tracer, cfg chain.Config, genesis func(hashing.ChainID, *state.DB),
	blocks [][]*types.Transaction) (map[string]float64, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("no observed blocks to replay")
	}
	c, err := chain.New(cfg, core.NewHeaderStore(cfg.Params()), func(db *state.DB) { genesis(cfg.ChainID, db) })
	if err != nil {
		return nil, err
	}
	defer c.Close()
	types.SetSenderCacheCapacity(0)
	id := int64(1) << 40 // clear of the live spans' ids
	for b, block := range blocks {
		blockSpan := time.Now()
		var decoded []*types.Transaction
		var ids []int64
		for _, tx := range block {
			id++
			enc := tx.Encode()
			var dec *types.Transaction
			tr.timed(id, 0, "types.DecodeTransaction", func() { dec, err = types.DecodeTransaction(enc) })
			if err != nil {
				return nil, err
			}
			tr.timed(id, 0, "types.RecoverSenders", func() { _, err = dec.Sender() })
			if err != nil {
				return nil, err
			}
			tr.timed(id, 0, "txpool.Add", func() { err = c.SubmitTx(dec) })
			if err != nil {
				return nil, err
			}
			decoded = append(decoded, dec)
			ids = append(ids, id)
		}
		var batch []*types.Transaction
		tr.timed(int64(-b-1), 0, "Pool.NextBatch", func() { batch = c.ProposeBatch() })
		if len(batch) != len(block) {
			return nil, fmt.Errorf("block %d: proposed %d of %d observed transactions", b, len(batch), len(block))
		}
		var receipts []*types.Receipt
		tr.timed(int64(-b-1), 0, "Chain.ApplyBlock", func() {
			_, receipts = c.ApplyBlock(batch, uint64(100+b), chain.ProposerAddress(cfg.ChainID, b%10))
		})
		for i, rec := range receipts {
			if !rec.Succeeded() {
				return nil, fmt.Errorf("block %d: replayed transaction failed: %s", b, rec.Err)
			}
			txid := decoded[i].ID()
			tr.timed(ids[i], 0, "Chain.Receipt", func() { c.Receipt(txid) })
		}
		tr.add(int64(-b-1), 0, "replay.block", blockSpan, time.Now())
	}
	out := make(map[string]float64)
	for name, xs := range selfByName(tr.all()) {
		out[name] = median(xs)
	}
	return out, nil
}

// budgetTx prints the one-transaction budget: the client-observed median
// from send (or due time) to the block, and what the outside view can
// attribute of it. The residual is mostly the wait for the next block and
// the consensus rounds, which only spans inside the program could split.
func budgetTx(ph *phase, total, rtt, srv float64, layer map[string]float64) {
	rows := []struct {
		name string
		us   float64
		in   bool // counted towards the explained sum (false: detail of a row above)
	}{
		{"http + json, client and server side (ack - handler)", rtt - srv, true},
		{"rpc handler (server histogram)", srv, true},
		{"  types.DecodeTransaction (replay)", layer["types.DecodeTransaction"], false},
		{"  types.RecoverSenders, cold (replay)", layer["types.RecoverSenders"], false},
		{"  txpool.Add (replay)", layer["txpool.Add"], false},
		{"Pool.NextBatch, per block (replay)", layer["Pool.NextBatch"], true},
		{"Chain.ApplyBlock + commit, per block (replay)", layer["Chain.ApplyBlock"], true},
		{"Chain.Receipt (replay)", layer["Chain.Receipt"], true},
	}
	explained := 0.0
	ph.notef("budget, one transaction: client-observed p50 %.1f us", total)
	for _, r := range rows {
		if r.in {
			explained += r.us
		}
		ph.notef("  %-52s %12.1f us %6.2f%%", r.name, r.us, 100*r.us/total)
	}
	ph.notef("  %-52s %12.1f us %6.2f%%", "unexplained (block wait, consensus, scheduling)", total-explained, 100*(total-explained)/total)
	ph.extra["budget.tx_unexplained_frac"] = (total - explained) / total
}

// moveClass is one Store-N size of the Move layer replay and how many
// contracts of it are pushed through.
type moveClass struct {
	slots uint64
	count int
}

// moveLayerNames are the Move pipeline's spans, in order.
var moveLayerNames = []string{"core.BuildMoveProof", "types.Move2Codec", "core.VerifyMove2", "core.ApplyMove2", "state.Commit"}

// replayMoveLayers pushes contracts of every payload class through the Move
// pipeline's public functions, one span per call: a real two-chain universe
// (memory backend) carries each through Move1 and the p-block wait, then
// BuildMoveProof on the source state, the Move2 payload codec, VerifyMove2
// against the target's light client, ApplyMove2 and the commit. It returns
// per class the median of each layer in microseconds, and the payload bytes
// per slot.
func replayMoveLayers(tr *tracer, classes []moveClass) (map[uint64]map[string]float64, error) {
	cfg := universe.DefaultConfig(1)
	u, err := universe.New(cfg)
	if err != nil {
		return nil, err
	}
	defer u.Close()
	u.Start()
	cl := u.Client(0)
	ids := u.ChainIDs()
	src, dst := u.Chain(ids[0]), u.Chain(ids[1])
	type item struct {
		class   uint64
		id      int64
		payload *types.Move2Payload
		decoded *types.Move2Payload
		encLen  int
	}
	var items []*item
	const wait = 30 * time.Minute
	for _, cls := range classes {
		for k := 0; k < cls.count; k++ {
			addr, err := u.MustDeploy(cl, src, contracts.StoreName,
				contracts.StoreConstructorArgs(cl.Address(), cls.slots), u256.Zero(), wait)
			if err != nil {
				return nil, err
			}
			if _, err := u.MustCall(cl, src, addr, core.MoveToInput(ids[1]), u256.Zero(), wait); err != nil {
				return nil, err
			}
			it := &item{class: cls.slots, id: int64(2)<<40 + int64(len(items))}
			tr.timed(it.id, 0, "core.BuildMoveProof", func() {
				it.payload, err = core.BuildMoveProof(src.StateDB(), addr, src.Head().Height)
			})
			if err != nil {
				return nil, err
			}
			tr.timed(it.id, 0, "types.Move2Codec", func() {
				enc := types.EncodeMove2Payload(it.payload)
				it.encLen = len(enc)
				it.decoded, err = types.DecodeMove2Payload(enc)
			})
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
	}
	last := items[len(items)-1].payload
	if !u.RunUntil(func() bool { return dst.Headers().ConfirmedAt(ids[0], last.SourceHeight) }, wait) {
		return nil, fmt.Errorf("source height %d never confirmed on the target", last.SourceHeight)
	}
	// No simulation runs from here on: the target's state is written
	// directly, outside any block.
	for _, it := range items {
		var acct state.Account
		tr.timed(it.id, 0, "core.VerifyMove2", func() {
			acct, err = core.VerifyMove2(ids[1], dst.StateDB(), dst.Headers(), it.decoded)
		})
		if err != nil {
			return nil, err
		}
		tr.timed(it.id, 0, "core.ApplyMove2", func() { core.ApplyMove2(dst.StateDB(), it.decoded, acct) })
		tr.timed(it.id, 0, "state.Commit", func() { dst.StateDB().Commit() })
		if got := dst.StateDB().GetLocation(it.payload.Contract); got != ids[1] {
			return nil, fmt.Errorf("replayed Move2 left Lc = %s", got)
		}
	}
	// Group this replay's spans by class.
	classOf := make(map[int64]uint64, len(items))
	for _, it := range items {
		classOf[it.id] = it.class
	}
	samples := make(map[uint64]map[string][]float64)
	for _, s := range tr.all() {
		cls, ok := classOf[s.ID]
		if !ok {
			continue
		}
		if samples[cls] == nil {
			samples[cls] = make(map[string][]float64)
		}
		samples[cls][s.Name] = append(samples[cls][s.Name], us(s.dur()))
	}
	out := make(map[uint64]map[string]float64)
	for cls, byName := range samples {
		out[cls] = make(map[string]float64)
		for name, xs := range byName {
			out[cls][name] = median(xs)
		}
	}
	for _, it := range items {
		out[it.class]["payload_bytes_per_slot"] = float64(it.encLen) / float64(it.class)
	}
	return out, nil
}

// moveProbes derives the core and Move2-codec metrics from a layer replay
// of the Store-1000 class (per thousand slots).
func (p *prober) moveProbes(o options) {
	cls := moveClass{slots: 1000, count: 5}
	if o.smoke {
		cls = moveClass{slots: 100, count: 2}
	}
	// The probes' own tracer: their spans must not mix with a workload's
	// replay of the same layers.
	tr := newTracer()
	start := time.Now()
	layers, err := replayMoveLayers(tr, []moveClass{cls})
	p.tr.add(0, 0, "probe.move_layers", start, time.Now())
	if err != nil {
		p.err = fmt.Errorf("move layer probe: %w", err)
		return
	}
	l, k := layers[cls.slots], float64(cls.slots)/1000
	p.vals["core.build_proof_us_per_kslot"] = l["core.BuildMoveProof"] / k
	p.vals["core.verify_move2_us_per_kslot"] = l["core.VerifyMove2"] / k
	p.vals["core.apply_move2_us_per_kslot"] = l["core.ApplyMove2"] / k
	p.vals["types.move2_codec_us_per_kslot"] = l["types.Move2Codec"] / k
	p.vals["types.move2_payload_bytes_per_slot"] = l["payload_bytes_per_slot"]
}

// budgetMove prints the one-Move budget per payload class and records the
// residual of the timed class.
func budgetMove(ph *phase, total float64, timed uint64, layers map[uint64]map[string]float64) {
	classes := make([]uint64, 0, len(layers))
	for cls := range layers {
		classes = append(classes, cls)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, cls := range classes {
		ph.notef("Move layer replay, Store-%d (us):", cls)
		for _, name := range moveLayerNames {
			ph.notef("  %-24s %12.1f", name, layers[cls][name])
		}
	}
	explained := 0.0
	ph.notef("budget, one Move of a Store-%d: client-observed p50 %.1f us", timed, total)
	for _, name := range moveLayerNames {
		v := layers[timed][name]
		explained += v
		ph.notef("  %-52s %12.1f us %6.2f%%", name+" (replay)", v, 100*v/total)
	}
	ph.notef("  %-52s %12.1f us %6.2f%%", "unexplained (Move1, p-wait blocks, consensus, relay)", total-explained, 100*(total-explained)/total)
	ph.extra["budget.move_unexplained_frac"] = (total - explained) / total
}
