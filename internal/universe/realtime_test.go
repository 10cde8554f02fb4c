package universe

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/rpc"
	"scmove/internal/state"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// rtSink receives every transfer of the live-vs-replay test: its balance,
// summed over both chains, is the value that arrived.
var rtSink = hashing.AddressFromBytes([]byte("rt-sink"))

// realtimeConfig is a two-shard layout shared by the socket run and its
// discrete-event twin: zero-fee workload plus pre-created proposer
// accounts, so both runs reach the same root regardless of block count.
func realtimeConfig(userKeys []*keys.KeyPair) Config {
	registry := contracts.NewRegistry()
	cfg := Config{
		SubmitDelay: 50 * time.Millisecond,
		RelayDelay:  50 * time.Millisecond,
		NetSeed:     7,
		ExtraGenesis: func(id hashing.ChainID, db *state.DB) {
			for _, kp := range userKeys {
				db.AddBalance(kp.Address(), u256.FromUint64(1<<30))
			}
			for k := 0; k < 10; k++ {
				db.AddBalance(chain.ProposerAddress(id, k), u256.Zero())
			}
		},
	}
	for s := 0; s < 2; s++ {
		spec := BurrowSpec(hashing.ChainID(s+1), registry, int64(100+s))
		spec.Validators = 4
		spec.Config.BlockInterval = 300 * time.Millisecond
		spec.Config.MaxBlockTxs = 2000
		spec.Config.BlockGasLimit = 1_000_000_000
		cfg.Specs = append(cfg.Specs, spec)
	}
	return cfg
}

// signedTransfers builds each user's nonce-ordered zero-fee unit transfers
// to rtSink, signed on the shared crypto pool.
func signedTransfers(t *testing.T, userKeys []*keys.KeyPair, perUser int) [][]*types.Transaction {
	t.Helper()
	out := make([][]*types.Transaction, len(userKeys))
	for ui, kp := range userKeys {
		cid := hashing.ChainID(ui%2 + 1)
		for n := 0; n < perUser; n++ {
			tx := &types.Transaction{
				ChainID: cid, Nonce: uint64(n), Kind: types.TxCall, To: rtSink,
				Value: u256.FromUint64(1), GasLimit: 100_000, GasPrice: u256.Zero(),
			}
			tx.SignOn(kp, keys.SharedPool())
			out[ui] = append(out[ui], tx)
		}
	}
	for _, txs := range out {
		for _, tx := range txs {
			if err := tx.WaitSig(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// tcpStats returns the live consensus transport's cumulative (sent,
// delivered, dropped, rejected) frame counts, safe to read while the
// universe runs; ok is false without Config.TCPWan.
func (u *Universe) tcpStats() (sent, delivered, dropped, rejected uint64, ok bool) {
	if u.tcp == nil {
		return 0, 0, 0, 0, false
	}
	sent, delivered, dropped, rejected = u.tcp.Stats()
	return sent, delivered, dropped, rejected, true
}

// The full live stack — HTTP RPC front doors, consensus over loopback TCP,
// wall-clock driver — commits 10 000 concurrent transfers to the same state
// roots the deterministic discrete-event path produces for them. Every
// submission must be accepted as new, the servers must record their
// wall-clock latency, one of them must serve a goroutine profile under
// /debug/pprof/ mid-run, and the sink must hold the value of every transfer.
func TestRealtimeTCPRPCMatchesDiscreteEvent(t *testing.T) {
	const users, perUser = 16, 625
	userKeys := make([]*keys.KeyPair, users)
	for i := range userKeys {
		userKeys[i] = keys.Deterministic(uint64(700 + i))
	}
	workload := signedTransfers(t, userKeys, perUser)

	cfg := realtimeConfig(userKeys)
	cfg.RPC, cfg.Realtime, cfg.TCPWan = true, true, true
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	stop := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		u.Driver().Run(stop)
	}()
	stopDriver := sync.OnceFunc(func() {
		close(stop)
		<-driverDone
	})
	closed := false
	// Every exit path stops the driver and the listeners; the normal path
	// closes the universe itself to check the error.
	t.Cleanup(func() {
		stopDriver()
		if !closed {
			u.Close()
		}
	})

	// One client for every sender: http.Post's default transport keeps two
	// idle connections per host, so most requests would dial anew.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: users}}
	t.Cleanup(client.CloseIdleConnections)
	post := func(addr string, req *rpc.Request) *rpc.Response {
		body, _ := json.Marshal(req)
		httpResp, err := client.Post("http://"+addr+"/", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("post: %v", err)
			return &rpc.Response{}
		}
		defer httpResp.Body.Close()
		var resp rpc.Response
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Errorf("decode: %v", err)
		}
		return &resp
	}

	var wg sync.WaitGroup
	for ui, txs := range workload {
		wg.Add(1)
		go func() {
			defer wg.Done()
			addr := u.RPCAddr(txs[0].ChainID)
			for _, tx := range txs {
				resp := post(addr, &rpc.Request{Method: "submit", Tx: hex.EncodeToString(tx.Encode())})
				switch {
				case !resp.Ok:
					t.Errorf("user %d nonce %d: submit rejected: %s", ui, tx.Nonce, resp.Error)
					return
				case resp.Known:
					t.Errorf("user %d nonce %d: first submission reported known", ui, tx.Nonce)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow() // a sequence that stopped early would never drain
	}

	// The profiler answers on the serving mux while the chains still run.
	profResp, err := client.Get("http://" + u.RPCAddr(u.ChainIDs()[0]) + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := io.ReadAll(profResp.Body)
	profResp.Body.Close()
	if err != nil || profResp.StatusCode != http.StatusOK || !bytes.Contains(prof, []byte("goroutine profile:")) {
		t.Fatalf("pprof goroutine: status %d, err %v, body %.80q", profResp.StatusCode, err, prof)
	}
	// So does /metrics, with the runtime's samples and the chain's head.
	first := u.ChainIDs()[0]
	metResp, err := client.Get("http://" + u.RPCAddr(first) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, err := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	head := fmt.Sprintf("scmove_chain_head_height{chain=\"%d\"} ", uint64(first))
	if err != nil || metResp.StatusCode != http.StatusOK ||
		!bytes.Contains(met, []byte("\ngo_gc_heap_allocs_bytes_total ")) || !bytes.Contains(met, []byte(head)) {
		t.Fatalf("metrics: status %d, err %v, body %.200q", metResp.StatusCode, err, met)
	}
	// Beside the scrape, the consensus transport: real peers accept every
	// frame the validators write.
	sent, delivered, dropped, rejected, ok := u.tcpStats()
	if !ok || rejected != 0 || dropped != 0 || delivered == 0 || delivered > sent {
		t.Fatalf("tcp stats: ok %v, sent %d, delivered %d, dropped %d, rejected %d", ok, sent, delivered, dropped, rejected)
	}

	// Drain: the last receipt per user implies its whole nonce sequence.
	deadline := time.Now().Add(120 * time.Second)
	for _, txs := range workload {
		last := txs[len(txs)-1]
		id := last.ID()
		addr := u.RPCAddr(last.ChainID)
		for {
			resp := post(addr, &rpc.Request{Method: "receipt", Tx: hex.EncodeToString(id[:])})
			if resp.Found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tx %x never committed", id[:8])
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	stopDriver()

	if h := u.WallMetrics().Histogram("rpc.submit.wall"); h == nil || h.Count() == 0 {
		t.Error("no wall-clock submit latency samples")
	}
	liveRoots := make(map[hashing.ChainID]hashing.Hash)
	var sunk uint64
	for _, id := range u.ChainIDs() {
		db := u.Chain(id).StateDB()
		liveRoots[id] = db.Root()
		sunk += db.GetBalance(rtSink).Uint64()
	}
	if sunk != users*perUser {
		t.Errorf("sink holds %d, want %d", sunk, users*perUser)
	}
	closed = true
	if err := u.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The discrete-event twin: same genesis, same pre-signed transactions,
	// virtual time. Final roots must match bit for bit.
	sim, err := New(realtimeConfig(userKeys))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, _, _, _, ok := sim.tcpStats(); ok {
		t.Error("a discrete-event universe reports TCP stats")
	}
	sim.Start()
	for _, txs := range workload {
		c := sim.Chain(txs[0].ChainID)
		for _, tx := range txs {
			if err := c.SubmitTx(tx); err != nil {
				t.Fatalf("replay submit: %v", err)
			}
		}
	}
	committed := func() bool {
		for _, txs := range workload {
			last := txs[len(txs)-1]
			if _, ok := sim.Chain(last.ChainID).Receipt(last.ID()); !ok {
				return false
			}
		}
		return true
	}
	if !sim.RunUntil(committed, 10*time.Minute) {
		t.Fatal("replay did not drain in simulated time")
	}
	for _, id := range sim.ChainIDs() {
		if got := sim.Chain(id).StateDB().Root(); got != liveRoots[id] {
			t.Errorf("chain %s: socket run root %s, discrete-event root %s", id, liveRoots[id], got)
		}
	}
}

// Invalid configuration combinations are rejected up front.
func TestRealtimeConfigValidation(t *testing.T) {
	cfg := ShardedConfig(1, 1)
	cfg.TCPWan = true
	if _, err := New(cfg); err == nil {
		t.Error("TCPWan without Realtime accepted")
	}
	cfg = ShardedConfig(1, 1)
	cfg.Realtime = true
	cfg.Chaos = &ChaosConfig{}
	if _, err := New(cfg); err == nil {
		t.Error("Chaos with Realtime accepted")
	}
}
