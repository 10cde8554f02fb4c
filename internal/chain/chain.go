// Package chain implements a blockchain node's ledger and execution layer:
// genesis, transaction application through the EVM (including Move2
// verification and recreation), block assembly with the chain's state-root
// rule, receipts, and block subscriptions. Consensus drivers (BFT and PoW)
// in this package decide *when* ApplyBlock runs.
package chain

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"scmove/internal/codec"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/txpool"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// Config describes one blockchain.
type Config struct {
	ChainID  hashing.ChainID
	TreeKind trie.Kind
	Schedule evm.Schedule
	// BlockGasLimit is the limit the chain advertises: it goes into every
	// header and is what GASLIMIT returns. Nothing enforces it — MaxBlockTxs
	// is the only cap on a block. ROADMAP item 8 is where fitting the
	// per-block limit becomes a Move1 precondition.
	BlockGasLimit uint64
	// MaxBlockTxs caps the transactions per block.
	MaxBlockTxs int
	// LaggingStateRoot marks Tendermint-style chains whose header at h+1
	// carries the state root of h (§VI).
	LaggingStateRoot bool
	// BlockInterval is the target block spacing (5 s BFT / 15 s PoW).
	BlockInterval time.Duration
	// ConfirmationDepth is the p peers must wait before trusting a header.
	ConfirmationDepth uint64
	// Natives is the native contract registry (may be nil).
	Natives *evm.Registry
	// PoolLimit bounds the pending transaction pool.
	PoolLimit int
	// State tunes the state database's storage layer: in-memory trees
	// only, or the bounded-RSS log-structured file store under them, and
	// the storage-tree residency cap. The zero value keeps the state in
	// memory.
	State state.Options
}

// Deprecated: ApplyBlock has one executor and no strategy. This type and its
// one constant are kept only because benchmark/layers.go:433 — frozen in the
// PR that deleted the parallel executors — passes the constant to
// bench.BuildKittiesDAGChain. Both go, with chain.apply_serial_ratio, in the
// next PR that may edit benchmark/.
type ParallelStrategy int

// Deprecated: see the type; benchmark/layers.go:433 is its only user.
const StrategyScheduled ParallelStrategy = 0

// ErrBadNonce begins the receipt error of a transaction whose nonce is not
// its sender's account nonce: "bad nonce N, account at M".
var ErrBadNonce = errors.New("bad nonce")

// Params returns the interoperability parameters peers configure (§IV-A).
func (c Config) Params() core.ChainParams {
	return core.ChainParams{
		ID:                c.ChainID,
		TreeKind:          c.TreeKind,
		ConfirmationDepth: c.ConfirmationDepth,
		LaggingStateRoot:  c.LaggingStateRoot,
	}
}

// BlockListener observes committed blocks.
type BlockListener func(block *types.Block, receipts []*types.Receipt)

// Chain is the ledger of one blockchain. Under the discrete-event
// simulator every access arrives on the scheduler goroutine; the RPC front
// door additionally reads (and submits) from arbitrary handler goroutines
// while the consensus driver commits blocks, so ledger state is guarded by
// an internal RWMutex:
//
//   - ApplyBlock holds the write lock from execution through commit and
//     index updates, releasing it before block listeners and tx waiters
//     fire (listeners call back into chain accessors — the header relay
//     reads HeaderAt of the very chain that committed).
//   - Read accessors (Head, HeaderAt, RootAt, Receipt, TxHeight)
//     take the read lock; internal unlocked variants serve the execution
//     path, which already holds the write lock.
//   - Query* and StaticCall take the full write lock even though they are
//     logically reads: state.DB reads fill the decoded working set. A
//     Query pinned to a height is served between blocks by construction —
//     the lock excludes a concurrent mid-block Commit.
//   - SubmitTx/SubmitTxs take no chain lock at all; the pool and the Move2
//     preparation slot have their own. BuildMove2 takes the write lock to
//     read the copy a payload is built against, and prepMu under it to
//     start the payload's preparation. prepMu is never held together with
//     pool.mu, nor chain.mu taken under it: ApplyBlock takes its
//     preparation before it locks, and a Move2 applied under chain.mu that
//     has none computes it in the chain's scratch, without prepMu.
type Chain struct {
	cfg     Config
	db      *state.DB
	headers *core.HeaderStore

	mu sync.RWMutex
	// committed holds the chain's own headers, height-indexed, genesis at 0.
	// A block's transactions are not kept: ApplyBlock hands the block to its
	// listeners and its caller, and nothing reads a body after that.
	committed []*types.Header
	rootsAt   []hashing.Hash // state root after executing height i
	txs       map[hashing.Hash]txRecord
	pool      *txpool.Pool
	listeners []BlockListener
	txWaiters map[hashing.Hash][]TxListener
	evictIDs  []hashing.Hash // ApplyBlock's pool-eviction scratch
	// vm is the one interpreter every transaction and StaticCall runs in,
	// rebound (evm.EVM.Reset) for each; both hold c.mu while they use it.
	vm evm.EVM
	// blockHash is the EVM's BLOCKHASH resolver, built once (blockHashFn).
	blockHash func(uint64) hashing.Hash

	// Optional observability (SetObserver): block-interval histogram, block
	// commit trace events, and pool-depth gauges. The chain cannot see the
	// scheduler, so the harness supplies the simulated-clock reading.
	reg         *metrics.Registry
	nowFn       func() time.Duration
	lastBlockAt time.Duration
	gDepth      string // "txpool.depth.<chain>"
	gPeak       string // "txpool.peak.<chain>"
	hInterval   string // "block.interval.<chain>"
	// Where the event loop blocks (SetObserver; zero counts nothing).
	sigWait  metrics.Wait // "loopwait.sig.propose"
	prepWait metrics.Wait // "loopwait.prepare.<tree kind>"

	// dispatch, when set, receives the closure that fires block listeners
	// and tx waiters after ApplyBlock commits (see SetDispatcher). Nil fires
	// inline.
	dispatch func(func())

	// prep is the slot of the storage work BuildMove2 last started for a
	// Move2 payload a transaction is expected to carry here. A block that
	// applies a Move2 with the same content takes it; the slot then keeps
	// its runs, with p nil, for the next preparation. A build that finds it
	// untaken replaces it and leaves its runs to the goroutine still
	// running on them. Close waits on prepWG for every goroutine started.
	prepMu     sync.Mutex
	prep       *move2Prep
	prepClosed bool
	prepWG     sync.WaitGroup
	// scratch is what BuildMove2 reads the source's and this chain's
	// copies of a contract into, and the runs a Move2 computed at apply is
	// merged in; c.mu guards it.
	scratch core.MoveScratch
}

// move2Prep is the storage work of the Move2 payload p; res is set before
// done closes. base is the copy BuildMove2 read for it to be merged into
// (empty for a full payload) and merged the run its merge was done in.
type move2Prep struct {
	p            *types.Move2Payload
	base, merged []types.StorageEntry
	done         chan struct{}
	res          *core.Move2Storage
}

// txRecord is what a chain keeps of an executed transaction: the height of
// its block and its receipt.
type txRecord struct {
	height uint64
	rec    *types.Receipt
}

// TxListener observes one transaction's execution. It gets the receipt, not
// the block: a chain keeps no block bodies (TxHeight gives the height).
type TxListener func(rec *types.Receipt)

// New creates a chain with the given peer header store and genesis
// allocation function (may be nil).
func New(cfg Config, headers *core.HeaderStore, genesis func(db *state.DB)) (*Chain, error) {
	db, err := state.NewDBWith(cfg.ChainID, cfg.TreeKind, cfg.State)
	if err != nil {
		return nil, fmt.Errorf("chain %s: %w", cfg.ChainID, err)
	}
	if genesis != nil {
		genesis(db)
	}
	root := db.Commit()
	genesisHeader := &types.Header{
		ChainID:   cfg.ChainID,
		Height:    0,
		StateRoot: root,
		TxRoot:    types.TxRoot(nil),
		GasLimit:  cfg.BlockGasLimit,
	}
	if cfg.LaggingStateRoot {
		// Header h carries the root of h-1; the genesis header has none.
		genesisHeader.StateRoot = hashing.ZeroHash
	}
	c := &Chain{
		cfg:       cfg,
		db:        db,
		headers:   headers,
		committed: []*types.Header{genesisHeader},
		rootsAt:   []hashing.Hash{root},
		txs:       make(map[hashing.Hash]txRecord),
		pool:      txpool.New(cfg.ChainID, cfg.PoolLimit),
		txWaiters: make(map[hashing.Hash][]TxListener),
	}
	c.blockHash = c.blockHashFn()
	return c, nil
}

// Config returns the chain configuration.
func (c *Chain) Config() Config { return c.cfg }

// ChainID returns the chain identifier.
func (c *Chain) ChainID() hashing.ChainID { return c.cfg.ChainID }

// StateDB exposes the chain's world state (used by proof builders and
// experiment harnesses; a real node would guard this behind RPC).
func (c *Chain) StateDB() *state.DB { return c.db }

// Headers returns the chain's light-client view of its peers.
func (c *Chain) Headers() *core.HeaderStore { return c.headers }

// Head returns the current head header.
func (c *Chain) Head() *types.Header {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head()
}

// head is Head without locking, for callers already holding c.mu.
func (c *Chain) head() *types.Header { return c.committed[len(c.committed)-1] }

// HeaderAt returns the header at a height.
func (c *Chain) HeaderAt(height uint64) (*types.Header, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headerAt(height)
}

// headerAt is HeaderAt without locking.
func (c *Chain) headerAt(height uint64) (*types.Header, bool) {
	if height >= uint64(len(c.committed)) {
		return nil, false
	}
	return c.committed[height], true
}

// Close waits for the Move2 preparations still running, then releases the
// state database's backend resources (file handles of the log-structured
// store). The chain must not be used afterwards.
func (c *Chain) Close() error {
	c.prepMu.Lock()
	c.prepClosed = true
	c.prep = nil
	c.prepMu.Unlock()
	c.prepWG.Wait()
	return c.db.Close()
}

// RootAt returns the state root after executing the block at a height.
func (c *Chain) RootAt(height uint64) (hashing.Hash, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rootAt(height)
}

// rootAt is RootAt without locking.
func (c *Chain) rootAt(height uint64) (hashing.Hash, bool) {
	if height >= uint64(len(c.rootsAt)) {
		return hashing.Hash{}, false
	}
	return c.rootsAt[height], true
}

// Receipt returns the receipt of an executed transaction.
func (c *Chain) Receipt(id hashing.Hash) (*types.Receipt, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.txs[id]
	return t.rec, ok
}

// TxHeight returns the height at which a transaction executed.
func (c *Chain) TxHeight(id hashing.Hash) (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.txs[id]
	return t.height, ok
}

// StaticCall runs a read-only contract call against the current state (the
// equivalent of an RPC eth_call; experiment harnesses and examples use it
// to read contract views without a transaction). It takes the write lock:
// EVM reads warm state-DB caches.
func (c *Chain) StaticCall(from, to hashing.Address, input []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.head()
	blockCtx := evm.BlockContext{
		ChainID:   c.cfg.ChainID,
		Number:    head.Height,
		Time:      head.Time,
		GasLimit:  c.cfg.BlockGasLimit,
		BlockHash: c.blockHash,
	}
	c.vm.Reset(c.cfg.Schedule, c.db, blockCtx, evm.TxContext{Origin: from}, c.cfg.Natives)
	ret, _, err := c.vm.StaticCall(from, to, input, c.cfg.BlockGasLimit)
	return ret, err
}

// SetObserver attaches an observability registry and a simulated-clock
// reading function (the chain never sees the scheduler directly). The chain
// then feeds a per-chain block-interval histogram, a block.commit trace
// event per committed block, and txpool depth/peak gauges. It also counts,
// in the registry's counters, the times and wall nanoseconds the event loop
// blocks in ProposeBatch on a deferred signature (loopwait.sig.propose) and
// in ApplyBlock on a Move2 preparation still running
// (loopwait.prepare.<tree kind>). Recording only reads state the chain
// already computed or times a wait that happens anyway, so enabling it
// cannot change simulated results. A nil registry detaches.
func (c *Chain) SetObserver(reg *metrics.Registry, now func() time.Duration) {
	c.reg = reg
	c.nowFn = now
	if reg == nil || now == nil {
		c.reg, c.nowFn = nil, nil
		c.sigWait, c.prepWait = metrics.Wait{}, metrics.Wait{}
		return
	}
	counters := reg.Counters()
	c.sigWait = counters.Wait(metrics.LoopWaitPrefix + "sig.propose")
	c.prepWait = counters.Wait(metrics.LoopWaitPrefix + "prepare." + c.cfg.TreeKind.String())
	id := c.cfg.ChainID.String()
	c.gDepth = "txpool.depth." + id
	c.gPeak = "txpool.peak." + id
	c.hInterval = "block.interval." + id
	c.lastBlockAt = now()
}

// SetDispatcher routes ApplyBlock's post-commit listener and waiter fires
// through d instead of invoking them inline. Universes with Config.Lanes
// pass a d that schedules the fire as a fresh event at the current simulated
// time, so callbacks that touch other chains or shared client state (header
// relays, client nonce bookkeeping, workload drivers) run after the event
// that committed the block has returned, not inside it. A nil d restores
// inline firing.
func (c *Chain) SetDispatcher(d func(func())) { c.dispatch = d }

// observePoolDepth refreshes the pool-depth gauge and its high-water mark.
func (c *Chain) observePoolDepth() {
	if c.reg == nil {
		return
	}
	depth := float64(c.pool.Len())
	c.reg.SetGauge(c.gDepth, depth)
	c.reg.MaxGauge(c.gPeak, depth)
}

// SubmitTx admits a transaction to the pending pool.
func (c *Chain) SubmitTx(tx *types.Transaction) error {
	err := c.pool.Add(tx)
	c.observePoolDepth()
	return err
}

// SubmitTxs admits a batch of transactions, recovering all senders on the
// crypto worker pool first; admission decisions and order are identical to
// calling SubmitTx in a loop. One error slot is returned per transaction.
func (c *Chain) SubmitTxs(txs []*types.Transaction) []error {
	errs := c.pool.AddBatch(txs)
	c.observePoolDepth()
	return errs
}

// prepareMin is the smallest Move2 payload, in storage entries, that
// BuildMove2 prepares. What the event loop pays for one Move2 — admission
// plus the block that applies it, MPT → IAVL on a 2-core host — computed at
// apply against prepared is 15 against 20 µs at 4 entries, 22 against 22 at
// 8 and 24 against 19 at 16; from there the inline cost grows with the
// payload and the prepared one barely moves. Every Kitties (4–8 entries)
// and sharded (2–3) Move stays below it.
const prepareMin = 16

// BuildMove2 is core.BuildMoveDelta for a Move to this chain from the
// chain whose state is src, built under this chain's lock in the chain's
// scratch: a delta against this chain's copy of the contract where it
// holds one, the full payload otherwise. A relayer calls it as soon as the
// Move1 block commits. For a payload that needs a preparation
// (core.NeedsPreparation) and stands for at least prepareMin entries it
// also starts core.PrepareMove2 — the completeness root, and for a full
// payload the tree to install — on a goroutine of the chain's own, over
// the copy the build just read, so the work overlaps the source's
// confirmation wait. ApplyBlock takes the result for a Move2 with the same
// source chain, storage entries, base and deleted keys (see takePrepared);
// the payload must not be modified afterwards. A Move2 whose preparation
// was replaced, or that BuildMove2 never built (sent over RPC, replayed,
// retried, forged), is computed by applyMove2 with the same pure function,
// so simulated results never depend on this.
func (c *Chain) BuildMove2(src *state.DB, contract hashing.Address, height uint64) (*types.Move2Payload, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := core.BuildMoveDelta(src, c.db, contract, height, &c.scratch)
	if err != nil {
		return nil, err
	}
	// A delta stands for the source's storage, the run it was diffed
	// against.
	n := len(p.Storage)
	if p.IsDelta() {
		n = len(c.scratch.Source)
	}
	c.prepare(p, n)
	return p, nil
}

// prepare starts, in the slot, the preparation of p, which stands for n
// storage entries, if it needs one and n is at least prepareMin. A delta is
// merged into its base, the copy BuildMoveDelta just read into
// c.scratch.Target, which prepare hands to the slot for the slot's free
// base run. The caller holds c.mu.
func (c *Chain) prepare(p *types.Move2Payload, n int) {
	if n < prepareMin || !core.NeedsPreparation(c.headers, c.cfg.TreeKind, p) {
		return
	}
	c.prepMu.Lock()
	defer c.prepMu.Unlock()
	if c.prepClosed {
		return
	}
	e := &move2Prep{p: p, done: make(chan struct{})}
	if old := c.prep; old != nil && old.p == nil { // taken: its runs are free
		e.base, e.merged = old.base[:0], old.merged
	}
	if p.IsDelta() {
		e.base, c.scratch.Target = c.scratch.Target, e.base
	}
	c.prep = e
	c.prepWG.Add(1)
	go func() {
		defer c.prepWG.Done()
		e.res, e.merged = core.PrepareMove2(c.headers, c.cfg.TreeKind, e.p, e.base, e.merged)
		close(e.done)
	}()
}

// takePrepared takes the preparation of txs' Move2 from the slot and
// returns its result, waiting for it if it is still being computed: res[i]
// belongs to txs[i] and is nil where there was none (res itself is nil when
// no transaction had one). A preparation is taken for a Move2 whose source
// chain, storage entries, base and deleted keys equal its payload's, the
// only parts its preparation reads (a delta's base entries are pinned by
// the base root, which apply checks again). Entries are compared by value:
// a payload that differs in one slot, forged or rebuilt, is not the one
// prepared, and the copy a consensus commit decodes finds it as well as the
// relayer's own object does. ApplyBlock calls it before taking c.mu, so
// neither readers nor submitters wait on a preparation. A taken result
// whose transaction fails before applyMove2 is dropped with the block.
// Under go test it panics when a result no longer matches its
// transaction's entries: the payload was modified after BuildMove2.
func (c *Chain) takePrepared(txs []*types.Transaction) []*core.Move2Storage {
	var res []*core.Move2Storage
	for i, tx := range txs {
		p := tx.Move2
		if tx.Kind != types.TxMove2 || p == nil {
			continue
		}
		c.prepMu.Lock()
		e := c.prep
		if e == nil || e.p == nil || e.p.SourceChain != p.SourceChain || e.p.Base != p.Base ||
			!slices.Equal(e.p.Storage, p.Storage) || !slices.Equal(e.p.Deleted, p.Deleted) {
			c.prepMu.Unlock()
			continue
		}
		c.prep = nil
		c.prepMu.Unlock()
		metrics.Recv(c.prepWait, e.done)
		if testing.Testing() && !e.res.Matches(c.headers, p, e.base, e.merged) {
			panic(fmt.Sprintf("chain %s: the Move2 payload of %s changed after BuildMove2 prepared it", c.cfg.ChainID, p.Contract))
		}
		if res == nil {
			res = make([]*core.Move2Storage, len(txs))
		}
		res[i] = e.res
		// The slot keeps the runs for the next preparation, unless a build
		// filled it meanwhile.
		c.prepMu.Lock()
		if c.prep == nil {
			e.p, e.res = nil, nil
			c.prep = e
		}
		c.prepMu.Unlock()
	}
	return res
}

// PendingTxs returns the pool size.
func (c *Chain) PendingTxs() int { return c.pool.Len() }

// OnBlock registers a committed-block listener.
func (c *Chain) OnBlock(l BlockListener) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, l)
}

// NotifyTx registers a one-shot listener fired when the transaction with
// the given id executes. If it already executed, the listener fires
// immediately (outside the chain lock, like every listener invocation).
func (c *Chain) NotifyTx(id hashing.Hash, l TxListener) {
	c.mu.Lock()
	t, ok := c.txs[id]
	if !ok {
		c.txWaiters[id] = append(c.txWaiters[id], l)
	}
	c.mu.Unlock()
	if ok {
		l(t.rec)
	}
}

// ProposeBatch selects the next block's transactions from the pool. The
// chain lock covers the pool's nonceOf callbacks into the state DB (nonce
// reads warm DB caches); lock order chain.mu → pool.mu.
//
// A client's deferred signature (types.SignOn) is awaited here, after the
// lock is released, and not at admission: the pool decides on From, which
// the signing key fixed, and no block holds an unsigned transaction. A
// transaction whose signature failed leaves the pool; its sender's later
// transactions in this batch wait for a later block.
func (c *Chain) ProposeBatch() []*types.Transaction {
	c.mu.Lock()
	batch := c.pool.NextBatch(c.cfg.MaxBlockTxs, c.db.GetNonce)
	c.mu.Unlock()
	var failed map[hashing.Address]bool
	keep := batch[:0]
	for _, tx := range batch {
		if failed[tx.From] {
			continue
		}
		if err := tx.WaitSigCounted(c.sigWait); err != nil {
			c.pool.Remove(tx.ID())
			if failed == nil {
				failed = make(map[hashing.Address]bool)
			}
			failed[tx.From] = true
			continue
		}
		keep = append(keep, tx)
	}
	return keep
}

// ApplyBlock executes txs one after another, in block order, as the next
// block at simulated unix time now, proposed by the given address, and
// commits it; DESIGN §11 records why there is no other executor. The write
// lock is held from execution through commit and index updates; listeners
// and waiters fire after it is released, so they can freely call back into
// the chain.
func (c *Chain) ApplyBlock(txs []*types.Transaction, now uint64, proposer hashing.Address) (*types.Block, []*types.Receipt) {
	for _, tx := range txs {
		tx.CheckID()
	}
	prepared := c.takePrepared(txs)
	// Recover every sender before taking the lock: it reads no chain state,
	// and a block whose senders are not yet memoized (decoded copies, a
	// replay) waits on the crypto worker pool, which must not stall readers.
	// Memoized senders resolve inline. Recovery is pure per transaction and
	// results land in input order, so execution below observes exactly what
	// it would have computed inline. Failures are re-surfaced by applyTx's
	// own Sender call, which by then is a memoized lookup or a re-check of
	// the failed signature.
	types.RecoverSenders(txs)
	c.mu.Lock()
	height := c.head().Height + 1
	blockCtx := evm.BlockContext{
		ChainID:   c.cfg.ChainID,
		Number:    height,
		Time:      now,
		Coinbase:  proposer,
		GasLimit:  c.cfg.BlockGasLimit,
		BlockHash: c.blockHash,
	}
	receipts := make([]*types.Receipt, 0, len(txs))
	var gasUsed uint64
	for i, tx := range txs {
		var s *core.Move2Storage
		if prepared != nil {
			s = prepared[i]
		}
		rec := c.applyTx(tx, blockCtx, s)
		receipts = append(receipts, rec)
		gasUsed += rec.GasUsed
	}
	root := c.db.Commit()
	c.rootsAt = append(c.rootsAt, root)

	headerRoot := root
	if c.cfg.LaggingStateRoot {
		headerRoot = c.rootsAt[height-1]
	}
	header := &types.Header{
		ChainID:    c.cfg.ChainID,
		Height:     height,
		ParentHash: c.head().Hash(),
		StateRoot:  headerRoot,
		TxRoot:     types.TxRoot(txs),
		Time:       now,
		Proposer:   proposer,
		GasUsed:    gasUsed,
		GasLimit:   c.cfg.BlockGasLimit,
	}
	block := &types.Block{Header: header, Txs: txs}
	c.committed = append(c.committed, header)
	// Evict included transactions from the pool only now, in one pass:
	// proposals select without consuming, so a failed consensus round cannot
	// lose traffic. Empty blocks have nothing to evict.
	ids := c.evictIDs[:0]
	for _, tx := range txs {
		ids = append(ids, tx.ID())
	}
	c.pool.Remove(ids...)
	c.evictIDs = ids
	for _, rec := range receipts {
		c.txs[rec.TxID] = txRecord{height, rec}
	}
	// Snapshot listeners and collect fired waiters under the lock, then
	// release it before invoking any callback: the header relay's listener
	// reads HeaderAt of this very chain, and waiters may register new ones.
	listeners := c.listeners
	var fired []struct {
		l   TxListener
		rec *types.Receipt
	}
	for _, rec := range receipts {
		if waiters, ok := c.txWaiters[rec.TxID]; ok {
			delete(c.txWaiters, rec.TxID)
			for _, l := range waiters {
				fired = append(fired, struct {
					l   TxListener
					rec *types.Receipt
				}{l, rec})
			}
		}
	}
	c.mu.Unlock()
	fire := func() {
		for _, l := range listeners {
			l(block, receipts)
		}
		for _, f := range fired {
			f.l(f.rec)
		}
	}
	if c.dispatch != nil && (len(listeners) > 0 || len(fired) > 0) {
		c.dispatch(fire)
	} else {
		fire()
	}
	c.observeBlock(block)
	return block, receipts
}

// observeBlock records the block-level observability signals: the interval
// since the previous commit, a block.commit trace event, and the post-
// eviction pool depth.
func (c *Chain) observeBlock(block *types.Block) {
	if c.reg == nil || c.nowFn == nil {
		return
	}
	at := c.nowFn()
	c.reg.Span(c.hInterval, c.lastBlockAt, at)
	c.lastBlockAt = at
	if c.reg.TraceEnabled() {
		c.reg.Event("block.commit", at,
			metrics.A("chain", c.cfg.ChainID.String()),
			metrics.A("height", strconv.FormatUint(block.Header.Height, 10)),
			metrics.A("txs", strconv.Itoa(len(block.Txs))),
			metrics.A("gas", strconv.FormatUint(block.Header.GasUsed, 10)))
	}
	c.observePoolDepth()
}

// blockHashFn returns the EVM BLOCKHASH resolver. It reads headers without
// locking: every caller (ApplyBlock execution, StaticCall) already holds
// c.mu, and an RLock here would self-deadlock against the held write lock.
func (c *Chain) blockHashFn() func(uint64) hashing.Hash {
	return func(height uint64) hashing.Hash {
		h, ok := c.headerAt(height)
		if !ok {
			return hashing.ZeroHash
		}
		return h.Hash()
	}
}

// applyTx executes one transaction against the chain's state, charging fees
// and producing a receipt. Failed transactions still pay for the gas they
// consumed. s is a Move2's prepared storage work, nil if there is none.
func (c *Chain) applyTx(tx *types.Transaction, blockCtx evm.BlockContext, s *core.Move2Storage) *types.Receipt {
	st := c.db
	rec := &types.Receipt{TxID: tx.ID(), Status: types.ReceiptFailed}
	// Authenticate before touching state: executing on a trusted tx.From
	// would let a forged From spend any account's balance. ApplyBlock
	// recovered every sender before it took the lock (RecoverSenders), so
	// for a transaction that verified, Sender returns its verifiedID memo:
	// a comparison, not an ECDSA verification.
	sender, err := tx.Sender()
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	sched := &c.cfg.Schedule

	if got := st.GetNonce(sender); tx.Nonce != got {
		rec.Err = fmt.Sprintf("%v %d, account at %d", ErrBadNonce, tx.Nonce, got)
		return rec
	}
	intrinsic := sched.IntrinsicGas(tx.Data, tx.Kind == types.TxCreate)
	if intrinsic > tx.GasLimit {
		rec.Err = "intrinsic gas exceeds limit"
		return rec
	}
	fee := u256.FromUint64(tx.GasLimit).Mul(tx.GasPrice)
	if st.GetBalance(sender).Lt(fee.Add(tx.Value)) {
		rec.Err = "insufficient funds for gas * price + value"
		return rec
	}
	st.SubBalance(sender, fee)
	if tx.Kind != types.TxCreate {
		// For creates, vm.Create consumes the nonce itself (the deployed
		// address is derived from it); bumping here would double-count.
		st.SetNonce(sender, tx.Nonce+1)
	}

	vm := &c.vm
	vm.Reset(c.cfg.Schedule, st, blockCtx, evm.TxContext{Origin: sender, GasPrice: tx.GasPrice}, c.cfg.Natives)
	gas := tx.GasLimit - intrinsic

	var (
		gasLeft uint64
		execErr error
	)
	switch tx.Kind {
	case types.TxCall:
		_, gasLeft, execErr = vm.Call(sender, tx.To, tx.Data, tx.Value, gas)
	case types.TxCreate:
		rec.Created, gasLeft, execErr = vm.Create(sender, tx.Data, tx.Value, gas)
	case types.TxMove2:
		gasLeft, execErr = c.applyMove2(vm, tx, gas, s)
	default:
		execErr = fmt.Errorf("unknown tx kind %d", tx.Kind)
	}

	rec.GasUsed = tx.GasLimit - gasLeft
	refund := u256.FromUint64(gasLeft).Mul(tx.GasPrice)
	st.AddBalance(sender, refund)
	st.AddBalance(blockCtx.Coinbase, u256.FromUint64(rec.GasUsed).Mul(tx.GasPrice))
	rec.Logs = st.TakeLogs()
	if execErr != nil {
		rec.Err = execErr.Error()
		rec.Status = types.ReceiptFailed
		rec.Created = hashing.ZeroAddress
	} else {
		rec.Status = types.ReceiptSuccess
	}
	return rec
}

// applyMove2 charges the recreation gas of Alg. 1 (contract creation plus
// one SSTORE per storage entry plus proof verification), verifies the
// payload, installs the contract, and runs moveFinish(·). s is the
// payload's storage work BuildMove2 prepared; without one it is computed
// here, in the chain's scratch, where the payload needs one
// (core.NeedsPreparation).
//
// A delta pays what the full payload it stands for pays: gas for the code
// it installs and for every entry of its merge into this chain's copy, not
// for the few it carries (DESIGN §17.11). That count is the copy's slot
// count plus a point read per key the delta names (core.Move2Entries), and
// the charge comes before any other storage work: a Move2 that cannot pay
// makes the chain read no more than its k slots. Only then is the copy
// read whole, and only for a delta that needs a preparation: one from a
// chain of another tree kind, whose completeness root is hashed over the
// merge. A delta from a chain of this chain's kind is written into the copy
// and checked by the copy's updated root (core.InstallMove2). A delta whose
// base is not the copy here is charged for its merge into whatever copy the
// chain holds, so a replay of a delta that has landed pays what the replay
// of its full payload would; it gets no storage work, since
// core.InstallMove2 refuses it first.
func (c *Chain) applyMove2(vm *evm.EVM, tx *types.Transaction, gas uint64, s *core.Move2Storage) (uint64, error) {
	if !tx.Value.IsZero() {
		return gas, errors.New("move2 transaction must not carry value")
	}
	p, st := tx.Move2, c.db
	code, baseErr := core.Move2Code(st, p)
	cost := c.move2Gas(code, core.Move2Entries(st, p), p.AccountProof)
	if cost > gas {
		return 0, fmt.Errorf("%w: move2 needs %d", evm.ErrOutOfGas, cost)
	}
	gas -= cost
	snap := st.Snapshot()
	if baseErr != nil {
		s = nil
	} else if s == nil && core.NeedsPreparation(c.headers, c.cfg.TreeKind, p) {
		sc := &c.scratch
		sc.Target = core.AppendMove2Base(sc.Target[:0], st, p)
		s, sc.Source = core.PrepareMove2(c.headers, c.cfg.TreeKind, p, sc.Target, sc.Source)
	}
	if s != nil {
		st.TreeWork().Built(s.Nodes)
	}
	if err := core.InstallMove2(c.cfg.ChainID, st, c.headers, p, s); err != nil {
		st.RevertToSnapshot(snap)
		return gas, err
	}
	// moveFinish(·): the custom completion routine (Alg. 1 line 13). Its
	// failure aborts the whole Move2.
	_, left, err := vm.Call(tx.From, p.Contract, core.MoveFinishInput, u256.Zero(), gas)
	if err != nil {
		st.RevertToSnapshot(snap)
		return left, fmt.Errorf("moveFinish: %w", err)
	}
	return left, nil
}

// move2Gas prices a Move2 that installs code and n storage entries with
// this account proof: contract recreation (Create base + per-byte code
// deposit where the schedule charges it), one storage write per recreated
// entry, and hashing work proportional to the proof size.
func (c *Chain) move2Gas(code []byte, n int, proof []byte) uint64 {
	s := &c.cfg.Schedule
	codeSize := evm.BillableCodeSize(c.cfg.Natives, code)
	proofWords := uint64(len(proof)+31) / 32
	return s.Create +
		s.CodeByte*codeSize +
		s.SStoreSet*uint64(n) +
		s.Sha3 + s.Sha3Word*proofWords
}

// QueryAccount returns addr's account record at the head state. It takes
// the write lock even though it is logically a read: state-DB reads fill
// the decoded working set.
func (c *Chain) QueryAccount(addr hashing.Address) (state.Account, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.GetAccount(addr)
}

// QueryResult is one Query's answer: the height and state root it read at,
// and addr's account there or, for a slot query, the slot's value.
type QueryResult struct {
	Height  uint64
	Root    hashing.Hash
	Account state.Account
	Exists  bool
	Value   evm.Word
}

// Query reads addr's account record — or, with key set, one storage slot
// of it — at the head state or, with height set, at that height's committed
// root inside the state's retained-root window. The height, its
// root (the state after executing it, also on LaggingStateRoot chains) and
// the value are read under one hold of the chain lock, so they always
// belong together; historical reads are only valid between blocks, which
// the lock guarantees too.
func (c *Chain) Query(addr hashing.Address, key *evm.Word, height *uint64) (QueryResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := QueryResult{Height: c.head().Height}
	if height != nil {
		q.Height = *height
	}
	root, ok := c.rootAt(q.Height)
	if !ok {
		return QueryResult{}, fmt.Errorf("chain %s: no root at height %d", c.cfg.ChainID, q.Height)
	}
	q.Root = root
	var err error
	switch {
	case height == nil && key == nil:
		q.Account, q.Exists = c.db.GetAccount(addr)
	case height == nil:
		q.Value = c.db.GetStorage(addr, *key)
	case key == nil:
		q.Account, q.Exists, err = c.db.GetAccountAt(addr, root)
	default:
		q.Value, err = c.db.GetStorageAt(addr, *key, root)
	}
	return q, err
}

// emptyTxList is the payload of every empty batch. One array serves them
// all: nothing writes a payload once it is encoded, and its capacity is its
// length, so an append copies.
var emptyTxList = []byte{0}

// EncodeTxList serializes a consensus payload (the proposed tx batch): the
// count, then each transaction's encoding behind its length, written once
// into one buffer of exactly the payload's size.
func EncodeTxList(txs []*types.Transaction) []byte {
	if len(txs) == 0 {
		return emptyTxList
	}
	size := codec.SizeUvarint(uint64(len(txs)))
	for _, tx := range txs {
		size += codec.SizeBytes(tx.EncodedSize())
	}
	w := codec.NewWriter(size)
	w.WriteUvarint(uint64(len(txs)))
	for _, tx := range txs {
		w.WriteUvarint(uint64(tx.EncodedSize()))
		tx.EncodeTo(w)
	}
	return w.Bytes()
}

// DecodeTxList parses a consensus payload. Each transaction is decoded where
// it lies in b; the transactions copy out what they keep.
func DecodeTxList(b []byte) ([]*types.Transaction, error) {
	r := codec.NewReader(b)
	n := r.ReadUvarint()
	if n > 1<<20 {
		return nil, errors.New("chain: oversized tx list")
	}
	// Bound preallocation by the remaining input (a tx encoding is at least
	// ~100 bytes; 8 is a safe floor), so a corrupted count prefix costs
	// O(remaining) memory rather than O(claimed).
	txs := make([]*types.Transaction, 0, r.CapCount(n, 8))
	for i := uint64(0); i < n; i++ {
		enc := r.ReadBytesView()
		if r.Err() != nil {
			return nil, r.Err()
		}
		tx, err := types.DecodeTransaction(enc)
		if err != nil {
			return nil, err
		}
		txs = append(txs, tx)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return txs, nil
}
