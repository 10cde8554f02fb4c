package universe

import (
	"slices"
	"sync"
	"testing"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/simnet"
	"scmove/internal/u256"
)

// TestLazyRelayMeshIsOActivePairs pins the scaling contract of the lazy
// relay mesh (Config.Lanes): a 64-chain universe builds with zero relay
// links, the first mover materializes exactly its pair (both directions),
// and an eager universe of the same shape pays for the full quadratic mesh.
func TestLazyRelayMeshIsOActivePairs(t *testing.T) {
	const shards = 64
	cfg := ShardedScaleConfig(shards, 4, 0)
	cfg.Clients = 1
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if got := u.RelayLinkCount(); got != 0 {
		t.Fatalf("lazy 64-chain universe built %d relay links, want 0", got)
	}
	u.Mover(1, 2)
	if got := u.RelayLinkCount(); got != 2 {
		t.Fatalf("one mover materialized %d relay links, want 2", got)
	}
	// Idempotent: a second mover over the same pair creates nothing new.
	u.Mover(2, 1)
	if got := u.RelayLinkCount(); got != 2 {
		t.Fatalf("repeat mover grew the mesh to %d links, want 2", got)
	}
	if u.RelayLink(1, 2) == nil || u.RelayLink(2, 1) == nil {
		t.Fatal("materialized links not visible via RelayLink")
	}
	if u.RelayLink(1, 3) != nil {
		t.Fatal("untouched pair has a link")
	}

	eager := ShardedConfig(8, 1)
	ue, err := New(eager)
	if err != nil {
		t.Fatal(err)
	}
	defer ue.Close()
	if got := ue.RelayLinkCount(); got != 8*7 {
		t.Fatalf("eager 8-chain universe has %d links, want %d", got, 8*7)
	}
}

// TestLazyRelaySeedsArePositionDerived pins that a lazily created link's
// fault stream does not depend on materialization order: two universes
// touching pairs in different orders end with identical link seeds, which
// the test observes through identical drop counts on lossy relays.
func TestLazyRelaySeedsArePositionDerived(t *testing.T) {
	build := func(order [][2]hashing.ChainID) map[[2]hashing.ChainID]simnet.LinkStats {
		cfg := ShardedScaleConfig(6, 4, 0)
		cfg.Clients = 1
		cfg.Chaos = &ChaosConfig{HeaderRelay: simnet.LinkFaults{DropRate: 0.3}, Seed: 7}
		u, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		for _, p := range order {
			u.EnsureRelay(p[0], p[1])
		}
		// Push traffic through every link and compare its counts after a
		// fixed horizon: a seed difference shows up as different drops.
		u.Start()
		u.Run(2 * time.Minute)
		out := make(map[[2]hashing.ChainID]simnet.LinkStats)
		for _, p := range order {
			out[p] = u.RelayLink(p[0], p[1]).Stats()
		}
		return out
	}
	pairs := [][2]hashing.ChainID{{1, 2}, {3, 5}, {2, 6}}
	rev := [][2]hashing.ChainID{{2, 6}, {3, 5}, {1, 2}}
	a := build(pairs)
	b := build(rev)
	for p, n := range a {
		if b[p] != n {
			t.Fatalf("link %v stats %+v vs %+v depending on creation order", p, n, b[p])
		}
	}
}

// TestLazyRelaySeedsMatchEagerMesh pins the single seed formula: a lazy
// mesh (Lanes) built pair by pair through EnsureRelay draws the same faults
// on every link as the eager mesh of the same configuration without Lanes.
func TestLazyRelaySeedsMatchEagerMesh(t *testing.T) {
	build := func(lazy bool) map[[2]hashing.ChainID]simnet.LinkStats {
		cfg := ShardedConfig(4, 1)
		cfg.Lanes = lazy
		cfg.Chaos = &ChaosConfig{HeaderRelay: simnet.LinkFaults{DropRate: 0.3, JitterFrac: 0.1}}
		u, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		ids := u.ChainIDs()
		for _, a := range ids {
			for _, b := range ids {
				if a != b {
					u.EnsureRelay(a, b)
				}
			}
		}
		u.Start()
		u.Run(2 * time.Minute)
		out := make(map[[2]hashing.ChainID]simnet.LinkStats)
		for _, a := range ids {
			for _, b := range ids {
				if a != b {
					out[[2]hashing.ChainID{a, b}] = u.RelayLink(a, b).Stats()
				}
			}
		}
		return out
	}
	eager, lazy := build(false), build(true)
	for p, s := range eager {
		if lazy[p] != s {
			t.Fatalf("link %v: eager %+v, lazy %+v", p, s, lazy[p])
		}
	}
}

// TestRelayerCutCoversLaterRelays pins that a relayer cut also severs the
// relay links a lazy universe builds after the cut.
func TestRelayerCutCoversLaterRelays(t *testing.T) {
	cfg := ShardedScaleConfig(4, 4, 0)
	cfg.Clients = 1
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	u.SetRelayerCut(true)
	u.Mover(1, 2)
	if !u.RelayLink(1, 2).Cut() || !u.RelayLink(2, 1).Cut() {
		t.Fatal("relay links built after SetRelayerCut(true) are not cut")
	}
}

// TestBulkUserProvisioning pins the streamed keyed-user genesis: users land
// funded on exactly their home chain, and the universe never retains their
// keys (UserClient re-derives on demand and can immediately spend).
func TestBulkUserProvisioning(t *testing.T) {
	const shards, users = 4, 10_000
	cfg := ShardedScaleConfig(shards, 4, users)
	cfg.Clients = 1
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if u.Users() != users {
		t.Fatalf("Users() = %d, want %d", u.Users(), users)
	}
	// Spot-check boundaries and a stride of interior users.
	for _, i := range []int{0, 1, shards - 1, shards, 4_321, users - 2, users - 1} {
		home := u.UserHome(i)
		addr := UserKey(i).Address()
		got := u.Chain(home).StateDB().GetBalance(addr)
		if got.IsZero() {
			t.Fatalf("user %d unfunded on home chain %s", i, home)
		}
		if want := u256.FromUint64(1 << 50); got.Cmp(want) != 0 {
			t.Fatalf("user %d home balance = %s, want %s", i, got, want)
		}
		for _, id := range u.ChainIDs() {
			if id == home {
				continue
			}
			if b := u.Chain(id).StateDB().GetBalance(addr); !b.IsZero() {
				t.Fatalf("user %d funded off-home on %s: %s", i, id, b)
			}
		}
	}
}

// emptyUserTable drops the process's user-address table so the caller's
// calls grow it from nothing. Prefixes handed out earlier stay valid: they
// keep their own backing array.
func emptyUserTable() {
	userTable.mu.Lock()
	userTable.addrs = nil
	userTable.mu.Unlock()
}

// TestUserAddressesMatchDerivation grows the user-address table in three
// uneven steps — 10, then 5 000 (across the userBatch boundary), then a
// smaller n that must not grow it — and holds every checked entry to
// UserKey(i).Address(), including a prefix handed out before the growth.
func TestUserAddressesMatchDerivation(t *testing.T) {
	emptyUserTable()
	first := UserAddresses(10)
	all := UserAddresses(5_000)
	small := UserAddresses(3_000)
	if len(first) != 10 || len(all) != 5_000 || len(small) != 3_000 {
		t.Fatalf("lengths %d, %d, %d; want 10, 5000, 3000", len(first), len(all), len(small))
	}
	if got := len(userTable.addrs); got != 5_000 {
		t.Fatalf("table holds %d entries after the smaller call, want 5000", got)
	}
	check := func(name string, addrs []hashing.Address, i int) {
		if want := UserKey(i).Address(); addrs[i] != want {
			t.Fatalf("%s[%d] = %s, UserKey(%d).Address() = %s", name, i, addrs[i], i, want)
		}
	}
	for i := range first {
		check("first", first, i)
	}
	idx := []int{0, userBatch - 1, userBatch, 4_999}
	for i := 1; i < 5_000; i += 97 {
		idx = append(idx, i)
	}
	for _, i := range idx {
		check("all", all, i)
		if i < len(small) {
			check("small", small, i)
		}
	}
}

// TestConcurrentBuildsShareUserTable builds two universes with different
// Users from concurrent goroutines, both growing the table from empty, and
// requires the genesis roots of sequential builds. Under -race this puts
// the table's mutex to work.
func TestConcurrentBuildsShareUserTable(t *testing.T) {
	sizes := []int{3_000, 5_000}
	genesisRoots := func(users int) []hashing.Hash {
		cfg := ShardedScaleConfig(4, 4, users)
		cfg.Clients = 1
		u, err := New(cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer u.Close()
		var roots []hashing.Hash
		for _, id := range u.ChainIDs() {
			root, _ := u.Chain(id).RootAt(0)
			roots = append(roots, root)
		}
		return roots
	}
	emptyUserTable()
	concurrent := make([][]hashing.Hash, len(sizes))
	var wg sync.WaitGroup
	for k, n := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[k] = genesisRoots(n)
		}()
	}
	wg.Wait()
	emptyUserTable()
	for k, n := range sizes {
		if seq := genesisRoots(n); !slices.Equal(concurrent[k], seq) || len(seq) == 0 {
			t.Fatalf("Users=%d: concurrent genesis roots %v, sequential %v", n, concurrent[k], seq)
		}
	}
}

// TestLanedConfigValidation pins the one combination Lanes rejects.
func TestLanedConfigValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Lanes = true
	cfg.Realtime = true
	if _, err := New(cfg); err == nil {
		t.Fatal("Lanes+Realtime accepted")
	}
}
