package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/rpc"
	"scmove/internal/state"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// rpcParams sizes the two front-door workloads.
type rpcParams struct {
	shards, validators, users int
	interval                  time.Duration
	blockTxs                  int
	// satRate is how many transfers per second of measured phase the closed
	// loop pre-signs; the phase ends early if a faster host drains them.
	satRate               float64
	submitRate, queryRate float64 // open loop
	drain                 time.Duration
}

func rpcParamsFor(o options) rpcParams {
	if o.smoke {
		return rpcParams{shards: 2, validators: 4, users: 8, interval: 50 * time.Millisecond,
			blockTxs: 5000, satRate: 4000, submitRate: 600, queryRate: 300, drain: 10 * time.Second}
	}
	return rpcParams{shards: 2, validators: 4, users: 64, interval: 200 * time.Millisecond,
		blockTxs: 5000, satRate: 13_000, submitRate: 3000, queryRate: 1500, drain: 20 * time.Second}
}

// rpcGenesis funds the load users, pre-creates every proposer account (so
// the final root does not depend on how many blocks a run needed, as in
// cmd/loadgen) and installs the slot-query table.
func rpcGenesis(users int) func(id hashing.ChainID, db *state.DB) {
	return func(id hashing.ChainID, db *state.DB) {
		for i := 0; i < users; i++ {
			db.AddBalance(rpcUserKey(i).Address(), u256.FromUint64(rpcUserFunds))
		}
		for k := 0; k < 10; k++ {
			db.AddBalance(chain.ProposerAddress(id, k), u256.Zero())
		}
		db.CreateContract(rpcTable, []byte("benchmark query table"))
		for i := 0; i < rpcTableSlots; i++ {
			db.SetStorage(rpcTable, rpcTableKey(i), rpcTableValue(i))
		}
	}
}

// rpcUniverseConfig is the shard layout shared by the live run and its
// discrete-event replay.
func rpcUniverseConfig(p rpcParams) universe.Config {
	registry := contracts.NewRegistry()
	cfg := universe.Config{
		SubmitDelay:  50 * time.Millisecond,
		RelayDelay:   50 * time.Millisecond,
		NetSeed:      7,
		ExtraGenesis: rpcGenesis(p.users),
	}
	for s := 0; s < p.shards; s++ {
		spec := universe.BurrowSpec(hashing.ChainID(s+1), registry, int64(100+s))
		spec.Validators = p.validators
		spec.Config.BlockInterval = p.interval
		spec.Config.MaxBlockTxs = p.blockTxs
		spec.Config.BlockGasLimit = 1_000_000_000
		cfg.Specs = append(cfg.Specs, spec)
	}
	return cfg
}

// blockSeen is one OnBlock observation.
type blockSeen struct {
	at      time.Time
	height  uint64
	txs, ok int
}

// chainWatch is the benchmark's OnBlock listener state for one chain. The
// listener runs on the realtime driver's goroutine: the slices are read
// only after the driver has stopped, the head at any time.
type chainWatch struct {
	head atomic.Uint64

	blocks []blockSeen
	kept   [][]*types.Transaction // first non-empty blocks, for the layer replay
}

// liveRun holds one live universe under load.
type liveRun struct {
	p      rpcParams
	in     *rpcInputs
	u      *universe.Universe
	chains []hashing.ChainID
	addr   map[hashing.ChainID]string
	watch  map[hashing.ChainID]*chainWatch
	userOf map[hashing.Address]int
	keep   int // blocks of transactions each watch retains

	stop       chan struct{}
	driverDone chan struct{}
	stopOnce   sync.Once
	closed     bool

	committed atomic.Int64
	// Per user, per nonce: wall instants in nanoseconds since epoch, 0 when
	// the event did not happen. dueAt is the open loop's schedule (equal to
	// sendAt in the closed loop).
	epoch                          time.Time
	dueAt, sendAt, ackAt, commitAt [][]int64
}

func (lr *liveRun) since(t time.Time) int64 { return t.Sub(lr.epoch).Nanoseconds() + 1 }

func (lr *liveRun) onBlock(w *chainWatch) chain.BlockListener {
	return func(block *types.Block, receipts []*types.Receipt) {
		now := time.Now()
		ok := 0
		for _, rec := range receipts {
			if rec.Succeeded() {
				ok++
			}
		}
		stamp := lr.since(now)
		for _, tx := range block.Txs {
			if u, found := lr.userOf[tx.From]; found && tx.Nonce < uint64(len(lr.commitAt[u])) {
				lr.commitAt[u][tx.Nonce] = stamp
			}
		}
		w.blocks = append(w.blocks, blockSeen{at: now, height: block.Header.Height, txs: len(block.Txs), ok: ok})
		if len(block.Txs) > 0 && len(w.kept) < lr.keep {
			w.kept = append(w.kept, block.Txs)
		}
		w.head.Store(block.Header.Height)
		lr.committed.Add(int64(len(block.Txs)))
	}
}

// workerStats is what one connection goroutine saw.
type workerStats struct {
	submitted, known, rejected, queries, queryFailed int
	late, queryLat, queryRTT                         []float64 // ms
	firstErr                                         error
}

// post sends one request body and decodes the reply. The body is read to
// its end so the connection is reused.
func post(c *http.Client, addr string, body []byte) (*rpc.Response, error) {
	httpResp, err := c.Post("http://"+addr+"/", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		return nil, err
	}
	var resp rpc.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decode reply %q: %w", raw, err)
	}
	return &resp, nil
}

func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// submit sends user u's next transfer and records its instants.
func (lr *liveRun) submit(c *http.Client, st *workerStats, u, n int, due time.Time) {
	start := time.Now()
	resp, err := post(c, lr.addr[lr.in.chainOf[u]], lr.in.bodies[u][n])
	end := time.Now()
	lr.dueAt[u][n], lr.sendAt[u][n], lr.ackAt[u][n] = lr.since(due), lr.since(start), lr.since(end)
	st.submitted++
	switch {
	case err != nil:
		st.rejected++
		if st.firstErr == nil {
			st.firstErr = err
		}
	case !resp.Ok:
		st.rejected++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("user %d nonce %d rejected: %s", u, n, resp.Error)
		}
	case resp.Known:
		st.known++
	}
}

// closedLoop sends the worker's users' transfers back to back, visiting the
// users round-robin, until the deadline or until none are left.
func (lr *liveRun) closedLoop(w int, deadline time.Time, st *workerStats) {
	c := newConn()
	defer c.CloseIdleConnections()
	users := lr.in.order[w]
	next := make([]int, len(users))
	for left := len(users); left > 0; {
		left = 0
		for i, u := range users {
			if next[i] >= len(lr.in.txs[u]) {
				continue
			}
			left++
			now := time.Now()
			if now.After(deadline) {
				return
			}
			lr.submit(c, st, u, next[i], now)
			next[i]++
		}
	}
}

// openLoop fires the worker's schedule: each request goes out when it is
// due (or as soon after as the single connection allows) and is timed from
// its due time.
func (lr *liveRun) openLoop(w int, t0 time.Time, st *workerStats) {
	c := newConn()
	defer c.CloseIdleConnections()
	next := make(map[int]int)
	for _, op := range lr.in.ops[w] {
		due := t0.Add(op.due)
		sleepUntil(due)
		st.late = append(st.late, ms(max(time.Since(due), 0)))
		if op.kind == opSubmit {
			lr.submit(c, st, op.user, next[op.user], due)
			next[op.user]++
			continue
		}
		lr.query(c, st, op, due)
	}
}

// query sends one state read and checks the answer against what the
// workload knows must hold at any committed height: a user's balance plus
// nonce is its genesis funding, and the table's slots never change.
func (lr *liveRun) query(c *http.Client, st *workerStats, op rpcOp, due time.Time) {
	cid := lr.in.chainOf[op.user]
	req := rpc.Request{Method: "query"}
	user := rpcUserKey(op.user).Address()
	switch op.kind {
	case opQuerySlot:
		key := rpcTableKey(op.slot)
		req.Account, req.Slot = hex.EncodeToString(rpcTable[:]), hex.EncodeToString(key[:])
	case opQueryHistorical:
		head := lr.watch[cid].head.Load()
		var h uint64
		if head > op.back {
			h = head - op.back
		}
		req.Account, req.Height = hex.EncodeToString(user[:]), &h
	default:
		req.Account = hex.EncodeToString(user[:])
	}
	body, err := json.Marshal(&req)
	if err != nil {
		panic(err) // a struct of strings and one integer always marshals
	}
	resp, err := post(c, lr.addr[cid], body)
	st.queries++
	st.queryLat = append(st.queryLat, ms(time.Since(due)))
	bad := func(why string) {
		st.queryFailed++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("query %+v: %s", op, why)
		}
	}
	switch {
	case err != nil:
		bad(err.Error())
	case !resp.Ok:
		bad(resp.Error)
	case op.kind == opQuerySlot:
		want := rpcTableValue(op.slot)
		if resp.Value != hex.EncodeToString(want[:]) {
			bad("slot value " + resp.Value)
		}
	default:
		raw, err := hex.DecodeString(resp.Balance)
		if err != nil || !resp.Exists {
			bad("no balance")
			break
		}
		if bal := u256.FromBytes(raw).Uint64(); bal+resp.Nonce != rpcUserFunds {
			bad(fmt.Sprintf("balance %d + nonce %d != funding", bal, resp.Nonce))
		}
	}
}

// startLive builds the live universe (RPC front doors, TCP consensus,
// wall-clock driver), hooks the benchmark's OnBlock listeners in, starts
// consensus and waits until every chain has committed a block.
func startLive(cfg universe.Config, p rpcParams, in *rpcInputs, traced bool) (*liveRun, error) {
	cfg.RPC, cfg.Realtime, cfg.TCPWan = true, true, true
	cfg.Metrics = traced // registry gauges and block histograms, traced pass only
	u, err := universe.New(cfg)
	if err != nil {
		return nil, err
	}
	lr := &liveRun{p: p, in: in, u: u, epoch: time.Now(), chains: u.ChainIDs(),
		addr:       make(map[hashing.ChainID]string),
		watch:      make(map[hashing.ChainID]*chainWatch),
		userOf:     make(map[hashing.Address]int, p.users),
		stop:       make(chan struct{}),
		driverDone: make(chan struct{}),
	}
	if traced {
		lr.keep = replayBlocks
	}
	stamps := func() [][]int64 {
		out := make([][]int64, p.users)
		for i := range out {
			out[i] = make([]int64, len(in.txs[i]))
		}
		return out
	}
	lr.dueAt, lr.sendAt, lr.ackAt, lr.commitAt = stamps(), stamps(), stamps(), stamps()
	for i := 0; i < p.users; i++ {
		lr.userOf[rpcUserKey(i).Address()] = i
	}
	for _, id := range lr.chains {
		w := &chainWatch{}
		lr.watch[id] = w
		lr.addr[id] = u.RPCAddr(id)
		u.Chain(id).OnBlock(lr.onBlock(w))
	}
	u.Start()
	go func() {
		defer close(lr.driverDone)
		u.Driver().Run(lr.stop)
	}()
	for _, id := range lr.chains {
		for start := time.Now(); lr.watch[id].head.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Since(start) > p.drain {
				lr.shutdown()
				return nil, fmt.Errorf("chain %s committed no block within %v of start", id, p.drain)
			}
		}
	}
	return lr, nil
}

// stopDriver stops the wall-clock driver and waits for it; after it returns
// the listeners' state is safe to read.
func (lr *liveRun) stopDriver() {
	lr.stopOnce.Do(func() {
		close(lr.stop)
		<-lr.driverDone
	})
}

// shutdown stops the driver and closes the universe, once.
func (lr *liveRun) shutdown() error {
	lr.stopDriver()
	if lr.closed {
		return nil
	}
	lr.closed = true
	return lr.u.Close()
}

// load is the measured phase: the workers send until their schedule or the
// clock ends, then every accepted transfer is awaited. It returns what the
// workers saw and the instants the sending began and ended.
func (lr *liveRun) load(o options, open bool) (round, []workerStats, time.Time, time.Time, error) {
	workers := len(lr.in.order)
	stats := make([]workerStats, workers)
	span := time.Duration(o.seconds * float64(time.Second))
	var sendStart, sendEnd time.Time
	runtime.GC()
	rd, err := measureRound(func() (int, error) {
		sendStart = time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if open {
					lr.openLoop(w, sendStart, &stats[w])
				} else {
					lr.closedLoop(w, sendStart.Add(span), &stats[w])
				}
			}(w)
		}
		wg.Wait()
		sendEnd = time.Now()
		accepted := 0
		for i := range stats {
			accepted += stats[i].submitted - stats[i].rejected - stats[i].known
		}
		for lr.committed.Load() < int64(accepted) {
			if time.Since(sendEnd) > lr.p.drain {
				return int(lr.committed.Load()), fmt.Errorf("drain: %d of %d accepted transfers committed after %v",
					lr.committed.Load(), accepted, lr.p.drain)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return int(lr.committed.Load()), nil
	})
	return rd, stats, sendStart, sendEnd, err
}

// confirmReceipts asks the front door for the receipt of every 100th
// submitted transfer.
func (lr *liveRun) confirmReceipts(ph *phase) {
	c := newConn()
	defer c.CloseIdleConnections()
	for u := range lr.in.txs {
		for n := 0; n < len(lr.in.txs[u]) && lr.ackAt[u][n] != 0; n++ {
			if (u+n)%100 != 0 {
				continue
			}
			id := lr.in.txs[u][n].ID()
			body, err := json.Marshal(&rpc.Request{Method: "receipt", Tx: hex.EncodeToString(id[:])})
			if err != nil {
				panic(err) // a struct of strings always marshals
			}
			resp, err := post(c, lr.addr[lr.in.chainOf[u]], body)
			if err != nil || !resp.Ok || !resp.Found || resp.Status != uint8(types.ReceiptSuccess) {
				ph.failf("receipt of user %d nonce %d over RPC: %v %+v", u, n, err, resp)
			}
		}
	}
}

// accounting turns the workers' counts and the recorded instants into the
// failure count, the latency metrics and the wait samples.
func (lr *liveRun) accounting(ph *phase, stats []workerStats, committedOK int, open bool) (rtt, commit []float64) {
	var all workerStats
	for i := range stats {
		s := &stats[i]
		all.submitted += s.submitted
		all.known += s.known
		all.rejected += s.rejected
		all.queries += s.queries
		all.queryFailed += s.queryFailed
		all.late = append(all.late, s.late...)
		all.queryLat = append(all.queryLat, s.queryLat...)
		if s.firstErr != nil && all.firstErr == nil {
			all.firstErr = s.firstErr
		}
	}
	uncommitted := all.submitted - all.known - all.rejected - committedOK
	ph.attempted = all.submitted + all.queries
	ph.failed = all.known + all.rejected + all.queryFailed + uncommitted
	if all.firstErr != nil {
		ph.notef("first failure: %v", all.firstErr)
	}
	if ph.failed > 0 {
		ph.failf("%d of %d operations failed (known %d, rejected %d, bad queries %d, not committed %d)",
			ph.failed, ph.attempted, all.known, all.rejected, all.queryFailed, uncommitted)
	}

	var ack, ackToCommit []float64
	for u := range lr.in.txs {
		for n := range lr.in.txs[u] {
			if lr.ackAt[u][n] == 0 {
				continue
			}
			ack = append(ack, float64(lr.ackAt[u][n]-lr.dueAt[u][n])/1e6)
			rtt = append(rtt, float64(lr.ackAt[u][n]-lr.sendAt[u][n])/1e6)
			if c := lr.commitAt[u][n]; c != 0 {
				commit = append(commit, float64(c-lr.dueAt[u][n])/1e6)
				ackToCommit = append(ackToCommit, float64(c-lr.ackAt[u][n])/1e6)
			}
		}
	}
	report := func(name string, xs []float64) {
		v, used := tail(xs, 0.99)
		ph.extra["e2e."+name+"_p50_ms"] = median(xs)
		ph.extra["e2e."+name+"_p99_ms"] = v
		ph.notef("%s: n=%d p50=%.3f ms, p%g=%.3f ms", name, len(xs), median(xs), used*100, v)
	}
	report("ack", ack)
	report("commit", commit)
	if open {
		report("query", all.queryLat)
		late, used := tail(all.late, 0.99)
		ph.extra["bench.gen_late_p99_ms"] = late
		ph.notef("generator lateness: n=%d p%g=%.3f ms", len(all.late), used*100, late)
		ph.waits, ph.waitWhat = commit, "due time to block seen by OnBlock"
	} else {
		ph.waits, ph.waitWhat = rtt, "HTTP submit round trip"
	}
	ph.extra["e2e.failed_frac"] = float64(ph.failed) / float64(max(ph.attempted, 1))
	ph.extra["chain.ack_to_commit_p50_ms"] = median(ackToCommit)
	ph.extra["rpc.known_or_rejected"] = float64(all.known + all.rejected)
	return rtt, commit
}

// blockStats derives the block-level observations and the steady-state
// throughput: what committed between the first and the last block seen
// while the senders were running, so that neither the ramp to the first
// block nor the drain tail is in it.
func (lr *liveRun) blockStats(ph *phase, tr *tracer, sendStart, sendEnd time.Time) {
	var gaps []float64
	var blockTxs, blocksWithTxs int
	for _, id := range lr.chains {
		var first, last, prev time.Time
		inWindow := 0
		for _, b := range lr.watch[id].blocks {
			if b.at.Before(sendStart) || b.at.After(sendEnd) {
				prev = b.at
				continue
			}
			if first.IsZero() {
				first = b.at
			} else {
				inWindow += b.ok
			}
			last = b.at
			if !prev.IsZero() {
				gaps = append(gaps, ms(b.at.Sub(prev)))
				tr.add(-int64(id)<<32-int64(b.height), 0, id.String()+".block", prev, b.at)
			}
			prev = b.at
			if b.txs > 0 {
				blockTxs += b.txs
				blocksWithTxs++
			}
		}
		if w := last.Sub(first).Seconds(); w > 0 {
			ph.throughput += float64(inWindow) / w
		}
	}
	overrun := 0
	for _, g := range gaps {
		if g > 1.1*ms(lr.p.interval) {
			overrun++
		}
	}
	ph.extra["tendermint.block_interval_p50_ms"] = median(gaps)
	ph.extra["tendermint.block_overrun_frac"] = float64(overrun) / float64(max(len(gaps), 1))
	ph.extra["chain.block_txs_mean"] = float64(blockTxs) / float64(max(blocksWithTxs, 1))
	ph.notef("blocks: %d gaps in the send window, p50 %.1f ms (configured %v), %d over by a tenth; %.0f txs per non-empty block",
		len(gaps), median(gaps), lr.p.interval, overrun, ph.extra["chain.block_txs_mean"])
}

// runRPC is rpc_submit_sat (open false) and rpc_mixed_open (open true).
func runRPC(o options, tr *tracer, open bool) (*phase, error) {
	p := rpcParamsFor(o)
	ph := newPhase()

	// Set-up: inputs, live universe, consensus running.
	setupStart := time.Now()
	cfg := rpcUniverseConfig(p)
	chains := make([]hashing.ChainID, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		chains[i] = spec.Config.ChainID
	}
	var in *rpcInputs
	var err error
	if workers := runtime.NumCPU(); open {
		in, err = genOpenLoop(o.seed, p.users, chains, workers, p.submitRate, p.queryRate,
			time.Duration(o.seconds*float64(time.Second)))
	} else {
		in, err = genClosedLoop(o.seed, p.users, chains, workers, int(p.satRate*o.seconds))
	}
	if err != nil {
		return nil, err
	}
	lr, err := startLive(cfg, p, in, tr != nil)
	if err != nil {
		return nil, err
	}
	defer lr.shutdown() //nolint:errcheck // error paths only; the success path checks it below
	// Signing in this process filled the process-wide sender cache; a real
	// front door sees a transaction's signature for the first time.
	types.SetSenderCacheCapacity(0)
	ph.setups = append(ph.setups, time.Since(setupStart))

	cache0 := types.ReadSenderCacheStats()
	rd, stats, sendStart, sendEnd, err := lr.load(o, open)
	if err != nil {
		return nil, err
	}
	ph.rounds = append(ph.rounds, rd)
	cache1 := types.ReadSenderCacheStats()
	lr.confirmReceipts(ph)

	// Read the registries, then stop the world and take the final state.
	if h := lr.u.WallMetrics().Histogram("rpc.submit.wall"); h != nil {
		ph.extra["rpc.submit_srv_p50_us"] = us(h.Quantile(0.5))
	}
	if h := lr.u.WallMetrics().Histogram("rpc.query.wall"); h != nil {
		ph.extra["rpc.query_srv_p50_us"] = us(h.Quantile(0.5))
	}
	if reg := lr.u.Metrics(); reg != nil {
		for _, name := range reg.GaugeNames() {
			if strings.HasPrefix(name, "txpool.peak.") {
				ph.extra["txpool.depth_peak"] = max(ph.extra["txpool.depth_peak"], reg.Gauge(name))
			}
		}
	}
	lr.stopDriver()
	roots := make(map[hashing.ChainID]hashing.Hash, len(chains))
	committedOK := 0
	for _, id := range chains {
		roots[id] = lr.u.Chain(id).StateDB().Root()
		ok := 0
		for _, b := range lr.watch[id].blocks {
			ok += b.ok
		}
		if got := lr.u.Chain(id).StateDB().GetBalance(rpcSink).Uint64(); got != uint64(ok) {
			ph.failf("chain %s: sink balance %d, committed transfers %d", id, got, ok)
		}
		committedOK += ok
	}
	if err := lr.shutdown(); err != nil {
		return nil, fmt.Errorf("close live universe: %w", err)
	}
	ph.peak = peakRSSMiB() // before the replay check, which is not the measured system

	rtt, commit := lr.accounting(ph, stats, committedOK, open)
	lr.blockStats(ph, tr, sendStart, sendEnd)
	ph.notef("throughput_ops_s %.1f over the block-to-block window; %d transfers committed in %.2f s first send to last commit",
		ph.throughput, committedOK, rd.wall.Seconds())
	ph.extra["rpc.http_overhead_p50_us"] = median(rtt)*1000 - ph.extra["rpc.submit_srv_p50_us"]
	if d := float64(cache1.Hits-cache0.Hits) + float64(cache1.Misses-cache0.Misses); d > 0 {
		ph.extra["types.sender_cache_hit_ratio"] = float64(cache1.Hits-cache0.Hits) / d
	}

	// Output check: replay what was submitted on the discrete-event path.
	msgsPerBlock, err := replayRoots(cfg, in, lr.ackAt, roots)
	if err != nil {
		ph.failf("%v", err)
	}
	ph.extra["tendermint.msgs_per_block"] = msgsPerBlock

	if tr != nil {
		lr.recordSpans(tr)
		layer, err := replayTxLayers(tr, cfg.Specs[0].Config, rpcGenesis(p.users), lr.watch[chains[0]].kept)
		if err != nil {
			return nil, fmt.Errorf("tx layer replay: %w", err)
		}
		budgetTx(ph, median(commit)*1000, median(rtt)*1000, ph.extra["rpc.submit_srv_p50_us"], layer)
	}
	return ph, nil
}

// recordSpans turns the instants of every committed transfer into its three
// live spans: the whole transaction, its HTTP submit, and the wait from the
// reply to the block.
func (lr *liveRun) recordSpans(tr *tracer) {
	at := func(ns int64) time.Time { return lr.epoch.Add(time.Duration(ns - 1)) }
	for u := range lr.in.txs {
		for n := range lr.in.txs[u] {
			if lr.ackAt[u][n] == 0 || lr.commitAt[u][n] == 0 {
				continue
			}
			id := int64(u)<<32 | int64(n)
			root := tr.add(id, 0, "tx", at(lr.sendAt[u][n]), at(lr.commitAt[u][n]))
			tr.add(id, root, "http.submit", at(lr.sendAt[u][n]), at(lr.ackAt[u][n]))
			tr.add(id, root, "commit.wait", at(lr.ackAt[u][n]), at(lr.commitAt[u][n]))
		}
	}
}

// replayRoots reruns exactly the transfers the live run submitted on the
// deterministic discrete-event path — same genesis, same chains, virtual
// time — and requires every chain's final state root to match the socket
// run bit for bit (as cmd/loadgen -verify). It returns the consensus
// messages delivered per committed block, which is exact on this path.
func replayRoots(cfg universe.Config, in *rpcInputs, ackAt [][]int64, want map[hashing.ChainID]hashing.Hash) (float64, error) {
	u, err := universe.New(cfg)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	defer u.Close()
	u.Start()
	last := make(map[int]*types.Transaction)
	for usr := range in.txs {
		c := u.Chain(in.chainOf[usr])
		for n, tx := range in.txs[usr] {
			if ackAt[usr][n] == 0 {
				break
			}
			if err := c.SubmitTx(tx); err != nil {
				return 0, fmt.Errorf("replay submit user %d nonce %d: %w", usr, n, err)
			}
			last[usr] = tx
		}
	}
	drained := func() bool {
		for usr, tx := range last {
			if _, ok := u.Chain(in.chainOf[usr]).Receipt(tx.ID()); !ok {
				return false
			}
		}
		return true
	}
	if !u.RunUntil(drained, 2*time.Hour) {
		return 0, fmt.Errorf("replay: workload did not drain in simulated time")
	}
	var blocks uint64
	for _, id := range u.ChainIDs() {
		if got := u.Chain(id).StateDB().Root(); got != want[id] {
			return 0, fmt.Errorf("replay root mismatch on %s: socket run %x, discrete-event run %x", id, want[id], got)
		}
		blocks += u.Chain(id).Head().Height
	}
	delivered, _ := u.Net.Stats()
	return float64(delivered) / float64(max(blocks, 1)), nil
}
