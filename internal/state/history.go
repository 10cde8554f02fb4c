package state

import (
	"errors"
	"fmt"
	"slices"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
)

// Historical access: DB.Commit records each commit's reverse diff for the
// last retainRoots committed roots, and the point reads below serve the
// state as of any of them — what the RPC's pinned queries (Chain.Query with
// a height) read. They are only valid between blocks: mid-block the trees
// hold uncommitted writes.

// retainRoots is the number of committed roots historical reads serve. It
// comfortably covers the paper's confirmation depths (p = 2 BFT, p = 6 PoW)
// plus proof-building slack.
const retainRoots = 8

// ErrRootNotRetained reports a historical read at a root outside the
// retained window.
var ErrRootNotRetained = errors.New("state: root not retained")

// history is the retained-root reverse-diff ring. It holds the last
// retainRoots committed roots and, for each but the oldest, the values its
// commit overwrote: the state at any retained root is the latest state with
// the reverse diffs of every later commit laid over it, so no read needs
// the diff of the oldest root's own commit, and the ring drops it.
type history struct {
	roots []hashing.Hash // oldest..newest committed roots
	diffs []revDiff      // diffs[i]: values overwritten by the commit of roots[i+1]
}

// revDiff is one commit's reverse diff. It retains the commit batch's own
// change slices instead of copying them: recording must cost the commit path
// nothing, while the rare historical read scans them.
type revDiff struct {
	accounts []backend.AccountChange
	slots    []backend.SlotChange
	arena    []byte // backs every encoding in accounts
}

// record appends the root and reverse diff of one commit, dropping the
// oldest root, and the diff only reads at that root needed, once the window
// is full. The first root's diff is not kept: no read reaches behind it.
// The ring slides in place, so once full a commit allocates nothing here.
// The diff's slices are retained as-is (not copied): Commit never mutates a
// batch after recording it — until the batch is the one reusable hands out.
func (h *history) record(root hashing.Hash, d revDiff) {
	if len(h.roots) == retainRoots {
		copy(h.roots, h.roots[1:])
		copy(h.diffs, h.diffs[1:])
		h.roots, h.diffs = h.roots[:retainRoots-1], h.diffs[:retainRoots-2]
	}
	if len(h.roots) > 0 {
		h.diffs = append(h.diffs, d)
	}
	h.roots = append(h.roots, root)
}

// reusable returns, once the window is full, the diff the next record drops
// (the zero diff before): only reads at the root that record drops need
// it, and Commit takes no reads, so Commit builds its batch in the diff's
// arrays. An array more than outsized times as long as the longest the
// window keeps is left out, for the collector: the commit that sized it (a
// genesis, a large Move2) was an outlier, and reusing it would keep its
// arrays for the DB's lifetime.
func (h *history) reusable() revDiff {
	if len(h.roots) < retainRoots {
		return revDiff{}
	}
	d := h.diffs[0]
	var accounts, slots, arena int
	for _, kept := range h.diffs[1:] {
		accounts, slots, arena = max(accounts, len(kept.accounts)), max(slots, len(kept.slots)), max(arena, len(kept.arena))
	}
	if cap(d.accounts) > outsized*accounts {
		d.accounts = nil
	}
	if cap(d.slots) > outsized*slots {
		d.slots = nil
	}
	if cap(d.arena) > outsized*arena {
		d.arena = nil
	}
	return d
}

// outsized bounds how much longer than the window's longest batch a
// reusable diff's array may be and still be reused (see reusable).
const outsized = 4

// since returns the reverse diffs of the commits after root, oldest first,
// or reports the root unknown. The newest occurrence of a recurring root
// wins (roots are canonical: equal roots mean equal contents, and the newest
// needs the fewest diffs). Walked oldest first, the value the state held at
// root is the one the first later commit replaced. The result aliases the
// ring, and the next Commit overwrites it — record slides the ring in place,
// and Commit builds its batch in the arrays of the diff it drops — so it
// must not be held across a Commit.
func (h *history) since(root hashing.Hash) ([]revDiff, error) {
	for i := len(h.roots) - 1; i >= 0; i-- {
		if h.roots[i] == root {
			return h.diffs[i:], nil
		}
	}
	return nil, ErrRootNotRetained
}

// GetAccountAt returns addr's committed record as of a retained root.
func (db *DB) GetAccountAt(addr hashing.Address, root hashing.Hash) (Account, bool, error) {
	diffs, err := db.hist.since(root)
	if err != nil {
		return Account{}, false, err
	}
	enc, ok := db.accountTree.Get(db.treeKey(addr[:]))
	for _, d := range diffs {
		if i := slices.IndexFunc(d.accounts, func(ac backend.AccountChange) bool { return ac.Addr == addr }); i >= 0 {
			enc, ok = d.accounts[i].Prev, d.accounts[i].Prev != nil
			break
		}
	}
	if !ok {
		return Account{}, false, nil
	}
	acct, err := DecodeAccount(enc)
	if err != nil {
		return Account{}, false, fmt.Errorf("state: corrupt account record for %s: %w", addr, err)
	}
	return acct, true, nil
}

// GetStorageAt returns one committed storage slot of addr as of a retained
// root.
func (db *DB) GetStorageAt(addr hashing.Address, key evm.Word, root hashing.Hash) (evm.Word, error) {
	diffs, err := db.hist.since(root)
	if err != nil {
		return evm.Word{}, err
	}
	sk := backend.SlotKey{Addr: addr, Key: key}
	for _, d := range diffs {
		if i := slices.IndexFunc(d.slots, func(sc backend.SlotChange) bool { return sc.Key == sk }); i >= 0 {
			return d.slots[i].Prev, nil // zero when the slot did not exist
		}
	}
	return db.GetStorage(addr, key), nil
}
