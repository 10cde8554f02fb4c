package universe

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/types"
)

// homeCopy is what a Move2 home leaves of a contract on its target.
type homeCopy struct {
	root      hashing.Hash
	location  hashing.ChainID
	moveNonce uint64
	gas       uint64
	delta     bool
}

// TestDeltaMove2MatchesFull ping-pongs a Store-100 between the MPT and the
// IAVL chain in two universes, writing 0, 1, 10 or 100 % of its slots (a
// fifth of them deleted) abroad before each trip home. In one universe the
// Move2 home is a delta against the stale copy; in the other the stale copy
// is pruned first, which forces the full payload. Both must leave the same
// storage, storage root, Lc and move nonce at home, for the same Move2 gas.
// At 100 % a delta would carry more than half the full payload's bytes,
// and the relayer sends the full one there too.
func TestDeltaMove2MatchesFull(t *testing.T) {
	for _, pct := range []int{0, 1, 10, 100} {
		t.Run(fmt.Sprintf("written-%d%%", pct), func(t *testing.T) {
			var runs [2]struct {
				u     *Universe
				store hashing.Address
				last  *types.Move2Payload
			}
			for i := range runs {
				u, addrs := newPingPong(t, 2, 100)
				runs[i].u, runs[i].store = u, addrs[0]
				r := &runs[i]
				u.Chain(u.ChainIDs()[0]).OnBlock(func(b *types.Block, _ []*types.Receipt) {
					for _, tx := range b.Txs {
						if tx.Kind == types.TxMove2 {
							r.last = tx.Move2
						}
					}
				})
			}
			for trip := 0; trip < 3; trip++ {
				var (
					got     [2]homeCopy
					entries [2][]state.StorageEntry
				)
				for i := range runs {
					u, store := runs[i].u, runs[i].store
					home, abroad := u.ChainIDs()[0], u.ChainIDs()[1]
					if _, err := u.MoveAndWait(u.Client(0), home, abroad, store, 30*time.Minute); err != nil {
						t.Fatal(err)
					}
					writeStore(t, u, abroad, store, 100, pct, trip)
					if i == 1 {
						if err := u.Chain(home).StateDB().PruneStale(store); err != nil {
							t.Fatal(err)
						}
					}
					res, err := u.MoveAndWait(u.Client(0), abroad, home, store, 30*time.Minute)
					if err != nil {
						t.Fatal(err)
					}
					db := u.Chain(home).StateDB()
					acct, _ := db.GetAccount(store)
					entries[i] = db.StorageEntries(store)
					got[i] = homeCopy{acct.StorageRoot, db.GetLocation(store), db.GetMoveNonce(store),
						res.Move2Gas, runs[i].last.IsDelta()}
				}
				if got[0].delta != (pct < 100) || got[1].delta {
					t.Fatalf("trip %d: the Move2s home were delta %v and %v, want a delta below 100 %% and a full payload",
						trip, got[0].delta, got[1].delta)
				}
				if !slices.Equal(entries[0], entries[1]) {
					t.Fatalf("trip %d: the delta left %d entries, the full payload %d, or other values",
						trip, len(entries[0]), len(entries[1]))
				}
				got[1].delta = got[0].delta
				if got[0] != got[1] {
					t.Fatalf("trip %d: delta left %+v, full payload %+v", trip, got[0], got[1])
				}
			}
		})
	}
}
