package state

import (
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
)

// Historical access: the backend retains reverse diffs for the last K
// committed roots, and these methods serve reads as of any retained root —
// what the RPC's historical queries (Chain.QueryAccountAt and
// Chain.QueryStorageAt) build on. They are only valid between blocks:
// mid-block the live trees hold uncommitted writes and the memory backend
// reads straight from them.

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
