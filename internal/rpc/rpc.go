// Package rpc is a chain's front door: a minimal JSON-over-HTTP server
// exposing transaction submission, state queries, and receipt lookups.
// Each chain runs its own server on a loopback TCP listener; the
// benchmark's rpc_* workloads, TestRealtimeTCPRPCMatchesDiscreteEvent
// (internal/universe) and external tools talk to it with plain POSTs.
//
// The protocol is a single endpoint ("/") taking a JSON request object
// with a "method" field — "submit", "query", or "receipt" — and returning
// a JSON response. Bodies are size-bounded and decoded as hostile input:
// bad hex, wrong lengths, and unknown methods are 4xx-level application
// errors, never panics. Per-method wall-clock latencies land in the
// registry's wall histograms (rpc.submit.wall, rpc.query.wall,
// rpc.receipt.wall).
package rpc

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"scmove/internal/chain"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/txpool"
	"scmove/internal/types"
)

// maxRequestBody bounds one request. The largest legitimate payload is a
// Move2 transaction carrying a full contract state proof; 8 MiB of JSON
// (≈4 MiB of tx bytes) leaves ample room while keeping a hostile client
// from ballooning the server.
const maxRequestBody = 8 << 20

// Request is the wire format of one RPC call.
type Request struct {
	// Method selects the call: "submit", "query", or "receipt".
	Method string `json:"method"`
	// Tx is the hex-encoded signed transaction (submit) or the hex
	// transaction id (receipt).
	Tx string `json:"tx,omitempty"`
	// Account is the hex-encoded 20-byte address to read (query).
	Account string `json:"account,omitempty"`
	// Slot optionally names a 32-byte storage key of Account (query).
	Slot string `json:"slot,omitempty"`
	// Height pins a query to a historical committed state inside the
	// state's retained-root window; nil reads the head state.
	Height *uint64 `json:"height,omitempty"`
}

// Response is the wire format of one RPC reply. Fields beyond Ok/Error are
// method-specific.
type Response struct {
	Ok    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// submit: the transaction id, and whether the pool already knew it
	// (resubmissions are idempontent successes, not errors).
	ID    string `json:"id,omitempty"`
	Known bool   `json:"known,omitempty"`

	// query: chain head at read time, plus the account record or slot value.
	Height  uint64 `json:"height,omitempty"`
	Root    string `json:"root,omitempty"`
	Exists  bool   `json:"exists,omitempty"`
	Nonce   uint64 `json:"nonce,omitempty"`
	Balance string `json:"balance,omitempty"`
	Value   string `json:"value,omitempty"`

	// receipt: inclusion status of a transaction.
	Found   bool   `json:"found,omitempty"`
	Status  uint8  `json:"status,omitempty"`
	GasUsed uint64 `json:"gasUsed,omitempty"`
	TxErr   string `json:"txErr,omitempty"`
}

// Server serves one chain's RPC endpoint.
type Server struct {
	chain *chain.Chain
	reg   *metrics.Registry // nil-safe; wall-clock histograms

	mu   sync.Mutex
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// NewServer creates a server for c, recording wall-clock latencies into reg
// (nil disables recording).
func NewServer(c *chain.Chain, reg *metrics.Registry) *Server {
	return &Server{chain: c, reg: reg}
}

// Start listens on addr ("" means an ephemeral loopback port) and serves
// until Close. It returns once the listener is bound, so Addr is valid
// immediately after.
func (s *Server) Start(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handle)
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	s.mu.Lock()
	s.ln, s.srv, s.done = ln, srv, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		// ErrServerClosed is the normal Close path; anything else would
		// surface through failed client requests.
		_ = srv.Serve(ln)
	}()
	return nil
}

// Addr returns the listener's address (host:port), or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server and waits for the serve loop to exit. Safe to call
// twice: a call after the first (or before Start) returns nil.
func (s *Server) Close() error {
	s.mu.Lock()
	srv, done := s.srv, s.done
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Close()
	<-done
	return err
}

// handle dispatches one request.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, &Response{Error: "POST only"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{Error: "read body: " + err.Error()})
		return
	}
	if len(body) > maxRequestBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, &Response{Error: "request too large"})
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{Error: "bad request: " + err.Error()})
		return
	}
	start := time.Now()
	var resp *Response
	switch req.Method {
	case "submit":
		resp = s.submit(&req)
		s.reg.ObserveWall("rpc.submit.wall", time.Since(start))
	case "query":
		resp = s.query(&req)
		s.reg.ObserveWall("rpc.query.wall", time.Since(start))
	case "receipt":
		resp = s.receipt(&req)
		s.reg.ObserveWall("rpc.receipt.wall", time.Since(start))
	default:
		resp = &Response{Error: fmt.Sprintf("unknown method %q", req.Method)}
	}
	status := http.StatusOK
	if !resp.Ok {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}

// submit decodes and admits one signed transaction. A duplicate of an
// already-pending transaction reports ok with Known set: open-loop load
// generators and retrying relayers must not count idempotent resubmission
// as failure.
func (s *Server) submit(req *Request) *Response {
	raw, err := hex.DecodeString(req.Tx)
	if err != nil {
		return &Response{Error: "submit: tx is not hex: " + err.Error()}
	}
	tx, err := types.DecodeTransaction(raw)
	if err != nil {
		return &Response{Error: "submit: " + err.Error()}
	}
	id := tx.ID()
	if err := s.chain.SubmitTx(tx); err != nil {
		if errors.Is(err, txpool.ErrDuplicate) {
			return &Response{Ok: true, ID: hex.EncodeToString(id[:]), Known: true}
		}
		return &Response{Error: "submit: " + err.Error()}
	}
	return &Response{Ok: true, ID: hex.EncodeToString(id[:])}
}

// query reads an account record — or one storage slot of it — at the head
// state or, with Height set, at a retained historical root. The reply's
// height, root and value come from one read of the chain (Chain.Query).
func (s *Server) query(req *Request) *Response {
	var addr hashing.Address
	if err := decodeFixedHex(req.Account, addr[:]); err != nil {
		return &Response{Error: "query: account: " + err.Error()}
	}
	var key *evm.Word
	if req.Slot != "" {
		key = new(evm.Word)
		if err := decodeFixedHex(req.Slot, key[:]); err != nil {
			return &Response{Error: "query: slot: " + err.Error()}
		}
	}
	q, err := s.chain.Query(addr, key, req.Height)
	if err != nil {
		return &Response{Error: "query: " + err.Error()}
	}
	resp := &Response{Ok: true, Height: q.Height, Root: hex.EncodeToString(q.Root[:])}
	if key != nil {
		resp.Value = hex.EncodeToString(q.Value[:])
		return resp
	}
	resp.Exists = q.Exists
	if q.Exists {
		bal := q.Account.Balance.Bytes32()
		resp.Nonce, resp.Balance = q.Account.Nonce, hex.EncodeToString(bal[:])
	}
	return resp
}

// receipt reports whether a transaction committed, and at which height.
func (s *Server) receipt(req *Request) *Response {
	var id hashing.Hash
	if err := decodeFixedHex(req.Tx, id[:]); err != nil {
		return &Response{Error: "receipt: tx: " + err.Error()}
	}
	rec, ok := s.chain.Receipt(id)
	if !ok {
		return &Response{Ok: true, Found: false}
	}
	height, _ := s.chain.TxHeight(id)
	return &Response{
		Ok: true, Found: true, Height: height,
		Status: uint8(rec.Status), GasUsed: rec.GasUsed, TxErr: rec.Err,
	}
}

// decodeFixedHex decodes s into dst, requiring the exact length.
func decodeFixedHex(s string, dst []byte) error {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return err
	}
	if len(raw) != len(dst) {
		return fmt.Errorf("want %d bytes, got %d", len(dst), len(raw))
	}
	copy(dst, raw)
	return nil
}

func writeJSON(w http.ResponseWriter, status int, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}
