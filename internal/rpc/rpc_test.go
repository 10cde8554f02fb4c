package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

func testChain(t *testing.T, kp *keys.KeyPair) *chain.Chain {
	t.Helper()
	cfg := chain.Config{
		ChainID:           1,
		TreeKind:          trie.KindMPT,
		Schedule:          evm.EthereumSchedule(),
		BlockGasLimit:     30_000_000,
		MaxBlockTxs:       200,
		ConfirmationDepth: 6,
		PoolLimit:         64,
	}
	c, err := chain.New(cfg, core.NewHeaderStore(), func(db *state.DB) {
		db.AddBalance(kp.Address(), u256.FromUint64(1_000_000_000))
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startServer(t *testing.T, c *chain.Chain, reg *metrics.Registry) *Server {
	t.Helper()
	s := NewServer(c, reg)
	if err := s.Start(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func call(t *testing.T, addr string, req *Request) *Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post("http://"+addr+"/", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func TestSubmitQueryReceiptRoundTrip(t *testing.T) {
	kp := keys.Deterministic(1)
	c := testChain(t, kp)
	reg := metrics.NewRegistry()
	s := startServer(t, c, reg)

	to := hashing.AddressFromBytes([]byte{0x77})
	tx := &types.Transaction{
		ChainID: 1, Nonce: 0, Kind: types.TxCall, To: to,
		Value: u256.FromUint64(5000), GasLimit: 1_000_000, GasPrice: u256.FromUint64(2),
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}

	sub := call(t, s.Addr(), &Request{Method: "submit", Tx: hex.EncodeToString(tx.Encode())})
	if !sub.Ok || sub.Known {
		t.Fatalf("submit: %+v", sub)
	}
	id := tx.ID()
	if sub.ID != hex.EncodeToString(id[:]) {
		t.Fatalf("submit id %s, want %x", sub.ID, id[:])
	}

	// Resubmission of a pending tx is an idempotent success, flagged known.
	again := call(t, s.Addr(), &Request{Method: "submit", Tx: hex.EncodeToString(tx.Encode())})
	if !again.Ok || !again.Known {
		t.Fatalf("resubmit: %+v", again)
	}

	// Commit a block containing it; the receipt becomes visible.
	c.ApplyBlock(c.ProposeBatch(), 1000, chain.ProposerAddress(1, 0))
	rec := call(t, s.Addr(), &Request{Method: "receipt", Tx: sub.ID})
	if !rec.Ok || !rec.Found || rec.Height != 1 {
		t.Fatalf("receipt: %+v", rec)
	}
	if rec.Status != uint8(types.ReceiptSuccess) {
		t.Fatalf("receipt status %d", rec.Status)
	}

	// Head query sees the transfer.
	q := call(t, s.Addr(), &Request{Method: "query", Account: hex.EncodeToString(to[:])})
	if !q.Ok || !q.Exists || q.Height != 1 {
		t.Fatalf("query: %+v", q)
	}
	if want := u256.FromUint64(5000).Bytes32(); q.Balance != hex.EncodeToString(want[:]) {
		t.Fatalf("balance %s", q.Balance)
	}

	// An unknown receipt reports found=false, not an error.
	miss := call(t, s.Addr(), &Request{Method: "receipt", Tx: hex.EncodeToString(bytes.Repeat([]byte{0xEE}, 32))})
	if !miss.Ok || miss.Found {
		t.Fatalf("missing receipt: %+v", miss)
	}

	// Wall-clock latency histograms recorded for both methods.
	for _, name := range []string{"rpc.submit.wall", "rpc.query.wall", "rpc.receipt.wall"} {
		h := reg.Histogram(name)
		if h == nil || h.Count() == 0 {
			t.Errorf("no wall histogram samples for %s", name)
		}
	}
}

func TestHistoricalQuery(t *testing.T) {
	kp := keys.Deterministic(2)
	c := testChain(t, kp)
	s := startServer(t, c, nil)

	to := hashing.AddressFromBytes([]byte{0x88})
	for nonce := uint64(0); nonce < 3; nonce++ {
		tx := &types.Transaction{
			ChainID: 1, Nonce: nonce, Kind: types.TxCall, To: to,
			Value: u256.FromUint64(100), GasLimit: 1_000_000, GasPrice: u256.FromUint64(2),
		}
		if err := tx.Sign(kp); err != nil {
			t.Fatal(err)
		}
		if err := c.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		c.ApplyBlock(c.ProposeBatch(), 1000+nonce, chain.ProposerAddress(1, 0))
	}

	h1 := uint64(1)
	q := call(t, s.Addr(), &Request{Method: "query", Account: hex.EncodeToString(to[:]), Height: &h1})
	if !q.Ok || !q.Exists {
		t.Fatalf("historical query: %+v", q)
	}
	if want := u256.FromUint64(100).Bytes32(); q.Balance != hex.EncodeToString(want[:]) {
		t.Fatalf("balance at height 1: %s", q.Balance)
	}
	// The reply's root is the state root at the height it reports, pinned
	// or head, never the head's root beside a pinned height.
	requireRoot := func(what string, resp *Response) {
		t.Helper()
		root, ok := c.RootAt(resp.Height)
		if want := hex.EncodeToString(root[:]); !ok || resp.Root != want {
			t.Fatalf("%s: root %s at height %d, want %s", what, resp.Root, resp.Height, want)
		}
	}
	if q.Height != h1 {
		t.Fatalf("historical query reports height %d, want %d", q.Height, h1)
	}
	requireRoot("historical query", q)
	key := hex.EncodeToString(make([]byte, 32))
	requireRoot("historical slot query", call(t, s.Addr(), &Request{Method: "query", Account: hex.EncodeToString(to[:]), Slot: key, Height: &h1}))
	head := call(t, s.Addr(), &Request{Method: "query", Account: hex.EncodeToString(to[:])})
	if want := u256.FromUint64(300).Bytes32(); head.Balance != hex.EncodeToString(want[:]) {
		t.Fatalf("balance at head: %s", head.Balance)
	}
	if head.Height != 3 {
		t.Fatalf("head query reports height %d, want 3", head.Height)
	}
	requireRoot("head query", head)
	requireRoot("head slot query", call(t, s.Addr(), &Request{Method: "query", Account: hex.EncodeToString(to[:]), Slot: key}))
	// A height outside the retained window is an application error.
	h99 := uint64(99)
	bad := call(t, s.Addr(), &Request{Method: "query", Account: hex.EncodeToString(to[:]), Height: &h99})
	if bad.Ok {
		t.Fatalf("query at absent height succeeded: %+v", bad)
	}
}

func TestHostileRequests(t *testing.T) {
	kp := keys.Deterministic(3)
	c := testChain(t, kp)
	s := startServer(t, c, nil)

	cases := []*Request{
		{Method: "teleport"},                       // unknown method
		{Method: "submit", Tx: "zz"},               // not hex
		{Method: "submit", Tx: "00ff00"},           // hex but not a tx
		{Method: "query", Account: "abcd"},         // wrong address length
		{Method: "query", Account: ""},             // empty address
		{Method: "receipt", Tx: "1234"},            // wrong hash length
		{Method: "query", Account: "x", Slot: "y"}, // garbage everywhere
	}
	for i, req := range cases {
		resp := call(t, s.Addr(), req)
		if resp.Ok {
			t.Errorf("case %d accepted: %+v", i, resp)
		}
		if resp.Error == "" {
			t.Errorf("case %d: no error message", i)
		}
	}

	// Malformed JSON body.
	httpResp, err := http.Post("http://"+s.Addr()+"/", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", httpResp.StatusCode)
	}

	// GET is refused.
	getResp, err := http.Get("http://" + s.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", getResp.StatusCode)
	}

	// The server still answers after all that.
	tx := &types.Transaction{
		ChainID: 1, Nonce: 0, Kind: types.TxCall, To: hashing.AddressFromBytes([]byte{9}),
		Value: u256.FromUint64(1), GasLimit: 1_000_000, GasPrice: u256.FromUint64(2),
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if resp := call(t, s.Addr(), &Request{Method: "submit", Tx: hex.EncodeToString(tx.Encode())}); !resp.Ok {
		t.Fatalf("healthy submit after hostile traffic: %+v", resp)
	}
}

func TestCloseIsIdempotentAndFast(t *testing.T) {
	kp := keys.Deterministic(4)
	c := testChain(t, kp)
	s := NewServer(c, nil)
	if err := s.Start(""); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("close took too long")
	}
}
