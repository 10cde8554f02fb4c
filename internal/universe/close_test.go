package universe

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// Close aggregates shutdown failures instead of keeping only the first:
// with two file-backed chains both failing to close, both chains' errors
// must surface through the joined error.
func TestCloseAggregatesAllChainErrors(t *testing.T) {
	cfg := ShardedConfig(2, 1)
	cfg.State = state.Options{Backend: backend.KindFile, Dir: t.TempDir()}
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage both chains: close their stores out from under the universe,
	// so its own Close on each reports a double-close error.
	for _, id := range u.ChainIDs() {
		if err := u.Chain(id).Close(); err != nil {
			t.Fatalf("manual close of %s: %v", id, err)
		}
	}
	err = u.Close()
	if err == nil {
		t.Fatal("Close reported success with both backends already closed")
	}
	for _, id := range u.ChainIDs() {
		if !strings.Contains(err.Error(), "chain "+id.String()) {
			t.Errorf("error does not surface chain %s: %v", id, err)
		}
	}
}

// A clean universe closes cleanly, and RPC-enabled universes close their
// servers idempotently inside Close.
func TestCloseCleanUniverse(t *testing.T) {
	cfg := ShardedConfig(2, 1)
	cfg.RPC = true
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range u.ChainIDs() {
		if u.RPCAddr(id) == "" {
			t.Fatalf("no RPC address for chain %s", id)
		}
	}
	if err := u.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
}

// A large Move2 is prepared on goroutines of its own from pool admission,
// or from ExpectMove2 before that. After a real Move of a Store-100, four
// Move2s that can never be included (their nonces leave a gap) are admitted
// and 40 payloads that no transaction will ever carry are expected, Close
// must wait for every preparation: the goroutine count comes back to what it
// was before New.
func TestCloseWaitsForMove2Preparations(t *testing.T) {
	keys.SharedPool() // the crypto workers live for the process
	base := runtime.NumGoroutine()
	u, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	cl, ids := u.Client(0), u.ChainIDs()
	store, err := u.MustDeploy(cl, u.Chain(ids[0]), contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 100), u256.Zero(), 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.MoveAndWait(cl, ids[0], ids[1], store, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	payload := &types.Move2Payload{Contract: store, SourceChain: ids[0], SourceHeight: 1}
	for i := 1; i <= 100; i++ {
		payload.Storage = append(payload.Storage, types.StorageEntry{Key: [32]byte{31: byte(i)}, Value: [32]byte{31: 1}})
	}
	for n := uint64(1000); n < 1004; n++ {
		tx := &types.Transaction{ChainID: ids[1], Nonce: n, Kind: types.TxMove2, GasLimit: 1 << 30, Move2: payload}
		if err := tx.Sign(ClientKey(0)); err != nil {
			t.Fatal(err)
		}
		if err := u.Chain(ids[1]).SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		never := *payload
		never.Storage = payload.Storage[i%2 : 50+i]
		u.Chain(ids[1]).ExpectMove2(&never)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// New releases what it opened when a later step fails: the second chain's
// state directory is a regular file, so its store cannot open, and the first
// chain's segment files must not stay open behind the error.
func TestNewClosesOpenedChainsOnError(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	cfg := ShardedConfig(2, 1)
	cfg.Specs[0].Config.State = state.Options{Backend: backend.KindFile, Dir: filepath.Join(dir, "a")}
	cfg.Specs[1].Config.State = state.Options{Backend: backend.KindFile, Dir: notADir}
	before := openFDs()
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a state directory that is a regular file")
	}
	if after := openFDs(); after != before {
		t.Fatalf("open file descriptors: %d before New, %d after it failed", before, after)
	}
}
