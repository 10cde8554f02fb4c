package universe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/u256"
)

// newPingPong builds the paper's two-chain deployment (Ethereum-like MPT,
// p = 6; Burrow-like IAVL, p = 2) on the file backend with at most treeLimit
// resident storage trees, and deploys one Store-N per size on the MPT chain.
func newPingPong(tb testing.TB, treeLimit int, sizes ...uint64) (*Universe, []hashing.Address) {
	tb.Helper()
	cfg := DefaultConfig(1)
	cfg.State = state.Options{Backend: backend.KindFile, Dir: tb.TempDir(), StorageTreeLimit: treeLimit}
	u, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := u.Close(); err != nil {
			tb.Error(err)
		}
	})
	u.Start()
	cl, home := u.Client(0), u.Chain(u.ChainIDs()[0])
	var addrs []hashing.Address
	for _, n := range sizes {
		addr, err := u.MustDeploy(cl, home, contracts.StoreName,
			contracts.StoreConstructorArgs(cl.Address(), n), u256.Zero(), 30*time.Minute)
		if err != nil {
			tb.Fatalf("deploy Store-%d: %v", n, err)
		}
		addrs = append(addrs, addr)
	}
	return u, addrs
}

// movePingPongDigest is the sha256 of TestMovePingPongDigest's timeline,
// computed at commit a52d732.
const movePingPongDigest = "a7a24bbb9beb779f8c75bcbc4db9d78428684ba334ef90a489b0b5039df70d37"

// TestMovePingPongDigest pins the Move timeline the benchmark's move_store
// workload measures, inside `go test ./...`: Store-10, Store-200 and
// Store-1000 each moved MPT → IAVL and straight back, four times over, 24 Moves
// alternating direction, with two resident storage trees on the file
// backend so installs evict. Every Move's simulated start and end, its Move1
// and Move2 gas, and both chains' head hashes after it go into one sha256.
// A change that moves a simulated event, a gas figure or a committed root
// fails here.
func TestMovePingPongDigest(t *testing.T) {
	u, addrs := newPingPong(t, 2, 10, 200, 1000)
	ids := u.ChainIDs()
	h := sha256.New()
	u64 := func(v uint64) { h.Write(binary.BigEndian.AppendUint64(nil, v)) }
	for i := 0; i < 24; i++ {
		src, dst := ids[i%2], ids[1-i%2]
		res, err := u.MoveAndWait(u.Client(0), src, dst, addrs[i/2%len(addrs)], 30*time.Minute)
		if err != nil {
			t.Fatalf("move %d %s -> %s: %v", i, src, dst, err)
		}
		u64(uint64(res.StartedAt))
		u64(uint64(res.Move2At))
		u64(res.Move1Gas)
		u64(res.Move2Gas)
		for _, id := range ids {
			head := u.Chain(id).Head().Hash()
			h.Write(head[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != movePingPongDigest {
		t.Fatalf("Move timeline digest %s, pinned %s", got, movePingPongDigest)
	}
}

// BenchmarkMovePingPong times one Store-1000 Move in each direction between
// the MPT and the IAVL chain of newPingPong (four resident trees, as in the
// benchmark's move_store): ns and allocations per Move, the Move back
// untimed. Run it with a fixed count, e.g. `go test -run '^$' -bench
// MovePingPong -benchtime 200x ./internal/universe`.
func BenchmarkMovePingPong(b *testing.B) {
	for _, dir := range []struct {
		name     string
		fromIAVL bool
	}{{"mpt-iavl", false}, {"iavl-mpt", true}} {
		b.Run(dir.name, func(b *testing.B) {
			u, addrs := newPingPong(b, 4, 1000)
			ids := u.ChainIDs()
			src, dst := ids[0], ids[1]
			move := func(from, to hashing.ChainID) {
				if _, err := u.MoveAndWait(u.Client(0), from, to, addrs[0], 30*time.Minute); err != nil {
					b.Fatal(err)
				}
			}
			if dir.fromIAVL {
				move(src, dst)
				src, dst = dst, src
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				move(src, dst)
				b.StopTimer()
				move(dst, src)
				b.StartTimer()
			}
		})
	}
}
