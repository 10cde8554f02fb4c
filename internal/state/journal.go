package state

import (
	"fmt"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/trie"
)

// journal records inverse operations so transaction execution can roll back
// to any snapshot (evm.StateAccess.Snapshot/RevertToSnapshot).
type journal struct {
	entries []journalEntry
}

type journalKind uint8

const (
	jAccount     journalKind = iota + 1 // restore a full account record
	jStorage                            // restore one storage slot
	jCode                               // forget a code blob added to the store
	jLog                                // drop the most recent log
	jStorageTree                        // put back a whole storage tree
)

type journalEntry struct {
	kind journalKind
	addr hashing.Address

	prevAccount *Account // jAccount: nil means the account did not exist
	key         evm.Word // jStorage: the slot; jCode: the blob's hash
	prevValue   evm.Word // jStorage
	prevExisted bool     // jStorage
	// jStorageTree: this install opened the account's replaced record
	firstInstall bool
	prevTree     trie.Tree // jStorageTree: nil means no tree was resident
}

func (j *journal) append(e journalEntry) { j.entries = append(j.entries, e) }

func (j *journal) len() int { return len(j.entries) }

// reset empties the journal. It clears the entries it drops: their
// prevTree and prevAccount would otherwise keep a displaced storage tree and
// account clones alive until a later append overwrote the slot.
func (j *journal) reset() {
	clear(j.entries)
	j.entries = j.entries[:0]
}

// revert undoes entries down to length id, newest first.
func (j *journal) revert(db *DB, id int) {
	for i := len(j.entries) - 1; i >= id; i-- {
		e := j.entries[i]
		switch e.kind {
		case jAccount:
			// The entry's record goes back into the working set: the entry
			// is dropped below, so nothing else holds it.
			db.cache[e.addr] = e.prevAccount
		case jStorage:
			t := db.storageTree(e.addr)
			if e.prevExisted {
				if err := t.Set(db.treeKey(e.key[:]), db.treeValue(e.prevValue[:])); err != nil {
					panic(fmt.Sprintf("state: journal revert set: %v", err))
				}
			} else {
				if err := t.Delete(db.treeKey(e.key[:])); err != nil {
					panic(fmt.Sprintf("state: journal revert delete: %v", err))
				}
			}
		case jStorageTree:
			if e.prevTree != nil {
				db.storage[e.addr] = e.prevTree
			} else {
				delete(db.storage, e.addr)
			}
			if e.firstInstall {
				delete(db.replaced, e.addr)
			}
		case jCode:
			delete(db.codes, hashing.Hash(e.key))
		case jLog:
			db.logs = db.logs[:len(db.logs)-1]
		}
	}
	clear(j.entries[id:])
	j.entries = j.entries[:id]
}
