package state

import (
	"fmt"

	"scmove/internal/hashing"
	"scmove/internal/state/backend"
	"scmove/internal/trie"
)

// Historical access: the backend retains reverse diffs for the last K
// committed roots, and these methods serve reads and Merkle proofs as of
// any retained root — the hook Move2 proof generation at a confirmed
// (rather than latest) height builds on. All of them are only valid
// between blocks: mid-block the live trees hold uncommitted writes and the
// memory backend reads straight from them.

// RetainedRoots lists the committed roots historical reads currently
// serve, oldest first.
func (db *DB) RetainedRoots() []hashing.Hash { return db.back.RetainedRoots() }

// OpenAt returns a read-only flat view of the state at a retained
// committed root. The view is valid until the next Commit.
func (db *DB) OpenAt(root hashing.Hash) (backend.Reader, error) {
	return db.back.OpenAt(root)
}

// GetAccountAt returns addr's committed record as of a retained root.
func (db *DB) GetAccountAt(addr hashing.Address, root hashing.Hash) (Account, bool, error) {
	if root == db.lastRoot {
		if enc, ok := db.accountTree.Get(addr[:]); ok {
			acct, err := DecodeAccount(enc)
			if err != nil {
				return Account{}, false, err
			}
			return acct, true, nil
		}
		return Account{}, false, nil
	}
	r, err := db.back.OpenAt(root)
	if err != nil {
		return Account{}, false, err
	}
	enc, ok := r.Account(addr)
	if !ok {
		return Account{}, false, nil
	}
	acct, err := DecodeAccount(enc)
	if err != nil {
		return Account{}, false, err
	}
	return acct, true, nil
}

// ProveAccountAt returns the membership proof of addr in the account tree
// as of a retained root. Proof bytes are bit-identical to what ProveAccount
// returned when that root was current: the trees are canonical, so a tree
// rebuilt from the historical flat view is the tree that existed then.
func (db *DB) ProveAccountAt(addr hashing.Address, root hashing.Hash) ([]byte, error) {
	t, err := db.historicalTree(root)
	if err != nil {
		return nil, err
	}
	return t.Prove(addr[:])
}

// StorageEntriesAt returns addr's full storage, ascending by key, as of a
// retained root — the historical state payload V of a move proof.
func (db *DB) StorageEntriesAt(addr hashing.Address, root hashing.Hash) ([]StorageEntry, error) {
	if root == db.lastRoot {
		return db.StorageEntries(addr), nil
	}
	r, err := db.back.OpenAt(root)
	if err != nil {
		return nil, err
	}
	var out []StorageEntry
	r.IterateStorage(addr, func(key, val backend.Word) bool {
		out = append(out, StorageEntry{Key: key, Value: val})
		return true
	})
	return out, nil
}

// historicalTree returns the account tree as of a retained root: the live
// tree when root is current, else a tree rebuilt from the backend's
// historical flat view. The last rebuild is memoized, so proving many
// accounts at one root pays the O(N) rebuild once.
func (db *DB) historicalTree(root hashing.Hash) (trie.Tree, error) {
	if root == db.lastRoot {
		return db.accountTree, nil
	}
	if db.histTree != nil && db.histRoot == root {
		return db.histTree, nil
	}
	r, err := db.back.OpenAt(root)
	if err != nil {
		return nil, err
	}
	t, err := buildAccountTree(db.kind, r)
	if err != nil {
		return nil, fmt.Errorf("state: historical tree at %s: %w", root, err)
	}
	if got := t.RootHash(); got != root {
		// The reverse diffs failed to reproduce the committed state — a
		// bookkeeping invariant violation, not a caller error.
		return nil, fmt.Errorf("state: historical tree at %s rebuilt to %s", root, got)
	}
	db.histRoot, db.histTree = root, t
	return t, nil
}
