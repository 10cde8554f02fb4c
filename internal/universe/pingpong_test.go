package universe

import (
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/oracle"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/u256"
)

// newPingPong builds the paper's two-chain deployment (Ethereum-like MPT,
// p = 6; Burrow-like IAVL, p = 2) on the file backend with at most treeLimit
// resident storage trees, and deploys one Store-N per size on the MPT chain.
func newPingPong(tb testing.TB, treeLimit int, sizes ...uint64) (*Universe, []hashing.Address) {
	tb.Helper()
	return deployStores(tb, pingPongConfig(tb, treeLimit), sizes...)
}

// pingPongConfig is newPingPong's deployment.
func pingPongConfig(tb testing.TB, treeLimit int) Config {
	cfg := DefaultConfig(1)
	cfg.State = state.Options{Backend: backend.KindFile, Dir: tb.TempDir(), StorageTreeLimit: treeLimit}
	return cfg
}

// deployStores starts a universe of cfg and deploys one Store-N per size on
// its first chain.
func deployStores(tb testing.TB, cfg Config, sizes ...uint64) (*Universe, []hashing.Address) {
	tb.Helper()
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

// movePingPongJournal is the digest of TestMovePingPongDigest's journal.
const movePingPongJournal = "7e9f62210b7d24ba92cae6871b83b246a301ca6809e45d7912f6aab797e65824"

// TestMovePingPongDigest pins the Move timeline the benchmark's move_store
// workload measures, inside `go test ./...`: Store-10, Store-200 and
// Store-1000 each moved MPT → IAVL and straight back, four times over, 24 Moves
// alternating direction, with two resident storage trees on the file
// backend so installs evict. The journal holds every block of the Moves and
// each Move's simulated start and end and gas: a change that moves a
// simulated event, a gas figure or a committed root fails here. The safety
// oracle checks every committed block.
func TestMovePingPongDigest(t *testing.T) {
	u, addrs := newPingPong(t, 2, 10, 200, 1000)
	o := oracle.Attach(u)
	defer o.Check(t)
	ids := u.ChainIDs()
	for i := 0; i < 24; i++ {
		src, dst := ids[i%2], ids[1-i%2]
		res, err := u.MoveAndWait(u.Client(0), src, dst, addrs[i/2%len(addrs)], 30*time.Minute)
		if err != nil {
			t.Fatalf("move %d %s -> %s: %v", i, src, dst, err)
		}
		o.Journal.Tail("move", i, "started", res.StartedAt, "move2", res.Move2At, "gas", res.Move1Gas, res.Move2Gas)
	}
	o.Journal.Check(t, movePingPongJournal)
}

// TestMoveStoreFirst256 pins the repository benchmark's move_store at
// --seed 1 (benchmark/wl_move.go) inside the main module: sixteen Stores
// (Store-10, -1000, -1000 and -1900, four times over) on pingPongConfig
// with four resident trees and a 2·10⁹ block gas limit, moved
// in the seeded order of benchmark/gen.go's moveOrder. The first 256 Moves'
// order index, simulated timestamps and gas hash to the digest a run of the
// benchmark prints ("first 256 moves: … digest=e1cf3a210f392995"); a
// change that moves it changed simulated behaviour.
func TestMoveStoreFirst256(t *testing.T) {
	const moves = 256
	// moveOrderSeed is subSeed(1, "moves") of benchmark/gen.go: the first
	// 8 bytes of hashing.Sum("1/moves"), shifted right by one.
	const moveOrderSeed = 4129762934971565732
	cfg := pingPongConfig(t, 4)
	for i := range cfg.Specs {
		cfg.Specs[i].Config.BlockGasLimit = 2_000_000_000
	}
	var sizes []uint64
	for i := 0; i < 4; i++ {
		sizes = append(sizes, 10, 1000, 1000, 1900)
	}
	u, addrs := deployStores(t, cfg, sizes...)
	defer oracle.Attach(u).Check(t)
	rng := rand.New(rand.NewSource(moveOrderSeed))
	var order []int
	for len(order) < moves {
		order = append(order, rng.Perm(len(addrs))...)
	}
	ids := u.ChainIDs()
	loc := make([]int, len(addrs)) // index into ids of each Store's host
	h := hashing.NewHasher(moves * 48)
	for _, k := range order[:moves] {
		src, dst := ids[loc[k]], ids[1-loc[k]]
		res, err := u.MoveAndWait(u.Client(0), src, dst, addrs[k], 30*time.Minute)
		if err != nil {
			t.Fatalf("Store-%d #%d %s -> %s: %v", sizes[k], k, src, dst, err)
		}
		loc[k] = 1 - loc[k]
		for _, v := range []uint64{uint64(k), uint64(res.StartedAt), uint64(res.Move1At),
			uint64(res.ProofReadyAt), uint64(res.Move2At), res.Move1Gas, res.Move2Gas} {
			h.Uvarint(v)
		}
	}
	sum := h.Sum()
	got := hex.EncodeToString(sum[:8])
	t.Logf("identity: %s %s", t.Name(), got)
	if got != "e1cf3a210f392995" {
		t.Fatalf("first %d Moves digest %s, benchmark prints e1cf3a210f392995", moves, got)
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
