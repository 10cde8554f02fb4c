package universe

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scmove/internal/state"
	"scmove/internal/state/backend"
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
