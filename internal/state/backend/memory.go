package backend

import (
	"scmove/internal/hashing"
	"scmove/internal/trie"
)

// TreeSource exposes the owner's live authenticated trees to the memory
// backend, which serves flat reads straight from them instead of keeping a
// second copy of the data. state.DB implements it.
type TreeSource interface {
	// AccountTree returns the committed account tree (addr -> record).
	AccountTree() trie.Tree
	// StorageTreeAt returns addr's live storage tree if one is resident.
	StorageTreeAt(addr hashing.Address) (trie.Tree, bool)
}

// Memory is the tree-backed backend: the pre-backend in-memory behaviour
// refactored behind the Backend interface. It owns no data of its own
// beyond the retained-root reverse-diff ring; Account and Slot walk the
// owner's trees. Reads reflect committed state while the owner is between
// blocks — the contract under which OpenAt and rebuild paths run.
type Memory struct {
	src  TreeSource
	hist *history
}

var _ Backend = (*Memory)(nil)

// NewMemory returns a memory backend over the owner's trees, retaining
// reverse diffs for the last DefaultRetainRoots committed roots.
func NewMemory(src TreeSource) *Memory {
	return &Memory{src: src, hist: &history{}}
}

// Account implements Reader.
func (m *Memory) Account(addr hashing.Address) ([]byte, bool) {
	return m.src.AccountTree().Get(addr[:])
}

// Slot implements Reader.
func (m *Memory) Slot(k SlotKey) (Word, bool) {
	t, ok := m.src.StorageTreeAt(k.Addr)
	if !ok {
		return Word{}, false
	}
	v, ok := t.Get(k.Key[:])
	if !ok {
		return Word{}, false
	}
	var w Word
	copy(w[:], v)
	return w, true
}

// IterateAccounts implements Reader.
func (m *Memory) IterateAccounts(fn func(addr hashing.Address, enc []byte) bool) {
	m.src.AccountTree().Iterate(func(k, v []byte) bool {
		var addr hashing.Address
		copy(addr[:], k)
		return fn(addr, v)
	})
}

// IterateStorage implements Reader.
func (m *Memory) IterateStorage(addr hashing.Address, fn func(key, val Word) bool) {
	t, ok := m.src.StorageTreeAt(addr)
	if !ok {
		return
	}
	t.Iterate(func(k, v []byte) bool {
		var key, val Word
		copy(key[:], k)
		copy(val[:], v)
		return fn(key, val)
	})
}

// Commit implements Backend. The trees already hold the new values (the
// owner flushed them before calling); only the reverse diff is recorded.
func (m *Memory) Commit(root hashing.Hash, batch Batch) error {
	m.hist.record(root, batch)
	return nil
}

// LatestRoot implements Backend.
func (m *Memory) LatestRoot() (hashing.Hash, bool) { return m.hist.latestRoot() }

// RetainedRoots implements Backend.
func (m *Memory) RetainedRoots() []hashing.Hash { return m.hist.retainedRoots() }

// OpenAt implements Backend.
func (m *Memory) OpenAt(root hashing.Hash) (Reader, error) {
	ov, err := m.hist.overlayAt(root)
	if err != nil {
		return nil, err
	}
	return &histReader{base: m, ov: ov}, nil
}

// Kind implements Backend.
func (m *Memory) Kind() Kind { return KindMemory }

// Persistent implements Backend: the trees are the only copy, so they must
// stay resident.
func (m *Memory) Persistent() bool { return false }

// Close implements Backend.
func (m *Memory) Close() error { return nil }
