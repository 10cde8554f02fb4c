package universe

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/oracle"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/types"
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

// movePingPongJournal is the digest of TestMovePingPongDigest's journal,
// and movePingPongLedger the events and WAN deliveries its event loop runs.
const movePingPongJournal = "b0089bfeb6e4b189d56ed6a4b176f9c5eaae1a06ea13dc75ea7416f9ecfca1aa"

var movePingPongLedger = Ledger{Events: 73345, Deliveries: 63315}

// TestMovePingPongDigest pins the Move timeline the benchmark's move_store
// workload measures, inside `go test ./...`: Store-10, Store-200 and
// Store-1000 each moved MPT → IAVL and straight back, four times over, 24 Moves
// alternating direction, with two resident storage trees on the file
// backend so installs evict. The journal holds every block of the Moves and
// each Move's simulated start and end and gas: a change that moves a
// simulated event, a gas figure or a committed root fails here, and so does
// one that runs another number of scheduler events or WAN deliveries. The
// safety oracle checks every committed block.
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
	ledger := u.Ledger()
	t.Logf("identity: %s events %d", t.Name(), ledger.Events)
	t.Logf("identity: %s deliveries %d", t.Name(), ledger.Deliveries)
	if ledger != movePingPongLedger {
		t.Errorf("the event loop ran %d events and %d WAN deliveries, pinned %d and %d",
			ledger.Events, ledger.Deliveries, movePingPongLedger.Events, movePingPongLedger.Deliveries)
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

// writeStore writes pct % of an n-slot Store's slots on chain c through
// its set method, one call each, and waits for the last: every fifth
// written slot is deleted, the others take a value derived from round.
func writeStore(tb testing.TB, u *Universe, c hashing.ChainID, store hashing.Address, n, pct, round int) {
	tb.Helper()
	k := n * pct / 100
	if k == 0 && pct > 0 {
		k = 1
	}
	cl, ch := u.Client(0), u.Chain(c)
	var last hashing.Hash
	for j := 0; j < k; j++ {
		var v evm.Word
		if j%5 != 4 {
			v = evm.Word(hashing.Sum([]byte(fmt.Sprintf("%d/%d", round, j))))
		}
		last = cl.Call(ch, store, contracts.EncodeCall("set", contracts.ArgUint(uint64(j*n/k)), contracts.ArgWord(v)), u256.Zero())
	}
	if k > 0 {
		if rec, err := u.waitTx(ch, last, 30*time.Minute); err != nil || !rec.Succeeded() {
			tb.Fatalf("write %d%% of Store-%d: %v %v", pct, n, err, rec)
		}
	}
}

// BenchmarkMovePingPong times one Store-1000 Move in each direction between
// the MPT and the IAVL chain of newPingPong (four resident trees, as in the
// benchmark's move_store), with 0, 1, 10 and 100 % of its slots written
// (a fifth of them deleted) on the source before each timed Move: ns,
// allocations, Move2 payload bytes, the tree nodes the target builds
// (state.DB.TreeWork), and the scheduler events and WAN deliveries the
// event loop runs (Universe.Ledger) per Move: exact counts where ns/op is
// noisy. The writes and the Move
// back are untimed; from the second Move on, each Move returns to a chain
// holding the contract's stale copy. Run it with a fixed count, e.g. `go
// test -run '^$' -bench MovePingPong -benchtime 20x ./internal/universe`.
func BenchmarkMovePingPong(b *testing.B) {
	for _, dir := range []struct {
		name     string
		fromIAVL bool
	}{{"mpt-iavl", false}, {"iavl-mpt", true}} {
		for _, pct := range []int{0, 1, 10, 100} {
			b.Run(fmt.Sprintf("%s/written-%d%%", dir.name, pct), func(b *testing.B) {
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
				var payload *types.Move2Payload
				u.Chain(dst).OnBlock(func(blk *types.Block, _ []*types.Receipt) {
					for _, tx := range blk.Txs {
						if tx.Kind == types.TxMove2 {
							payload = tx.Move2
						}
					}
				})
				move(src, dst) // the first Move leaves a stale copy on src
				move(dst, src)
				bytes := 0
				var nodes, events, deliveries uint64
				work := u.Chain(dst).StateDB().TreeWork()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					writeStore(b, u, src, addrs[0], 1000, pct, i)
					built, before := work.Nodes(), u.Ledger()
					b.StartTimer()
					move(src, dst)
					b.StopTimer()
					after := u.Ledger()
					nodes += work.Nodes() - built
					events += after.Events - before.Events
					deliveries += after.Deliveries - before.Deliveries
					bytes += len(types.EncodeMove2Payload(payload))
					move(dst, src)
					b.StartTimer()
				}
				b.ReportMetric(float64(bytes)/float64(b.N), "payload-B/op")
				b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
				b.ReportMetric(float64(deliveries)/float64(b.N), "deliveries/op")
			})
		}
	}
}
