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

// history is the retained-root reverse-diff ring. Entry i holds the root
// committed by block i of the window together with the values that commit
// overwrote, so the state at any retained root is the latest state with the
// reverse diffs of every later commit laid over it.
type history struct {
	roots []hashing.Hash // oldest..newest committed roots
	diffs []revDiff      // diffs[i]: values overwritten by the commit of roots[i]
}

// revDiff is one commit's reverse diff. It retains the commit batch's own
// change slices instead of copying them: recording must cost the commit path
// nothing, while the rare historical read scans them.
type revDiff struct {
	accounts []backend.AccountChange
	slots    []backend.SlotChange
}

// record appends the reverse diff of one commit and trims the window. The
// batch's slices are retained as-is (not copied): Commit builds a fresh
// batch per block and never mutates it afterwards.
func (h *history) record(root hashing.Hash, batch backend.Batch) {
	h.roots = append(h.roots, root)
	h.diffs = append(h.diffs, revDiff{accounts: batch.Accounts, slots: batch.Slots})
	if len(h.roots) > retainRoots {
		n := len(h.roots) - retainRoots
		h.roots = append(h.roots[:0:0], h.roots[n:]...)
		h.diffs = append(h.diffs[:0:0], h.diffs[n:]...)
	}
}

// since returns the reverse diffs of the commits after root, oldest first,
// or reports the root unknown. The newest occurrence of a recurring root
// wins (roots are canonical: equal roots mean equal contents, and the newest
// needs the fewest diffs). Walked oldest first, the value the state held at
// root is the one the first later commit replaced.
func (h *history) since(root hashing.Hash) ([]revDiff, error) {
	for i := len(h.roots) - 1; i >= 0; i-- {
		if h.roots[i] == root {
			return h.diffs[i+1:], nil
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
	enc, ok := db.accountTree.Get(addr[:])
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
