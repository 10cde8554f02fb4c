package backend

import (
	"bytes"
	"sort"

	"scmove/internal/hashing"
)

// history is the retained-root reverse-diff ring shared by both backends.
// Entry i holds the root committed by block i of the window together with
// the values that commit overwrote, so the flat state at any retained root
// can be reconstructed by overlaying reverse diffs (newest-first) on top of
// the latest state.
type history struct {
	roots []hashing.Hash // oldest..newest committed roots
	diffs []revDiff      // diffs[i]: values overwritten by the commit of roots[i]
}

// revDiff is one commit's reverse diff. It retains the commit batch's own
// change slices instead of copying them into maps: recording must cost the
// hot commit path nothing, while overlayAt — only reached through the rare
// historical-proof paths — folds the slices into lookup maps on demand.
// Keys are unique within one batch (the committer deduplicates per block),
// so slice order within a diff carries no meaning.
type revDiff struct {
	accounts []AccountChange
	slots    []SlotChange
}

type accPrev struct {
	enc []byte // nil = account was absent before the commit
}

type slotPrev struct {
	val     Word
	existed bool
}

// record appends the reverse diff of one commit and trims the window. The
// batch's slices are retained as-is (not copied): committers build a fresh
// batch per commit and never mutate it afterwards.
func (h *history) record(root hashing.Hash, batch Batch) {
	h.roots = append(h.roots, root)
	h.diffs = append(h.diffs, revDiff{accounts: batch.Accounts, slots: batch.Slots})
	if len(h.roots) > DefaultRetainRoots {
		n := len(h.roots) - DefaultRetainRoots
		h.roots = append(h.roots[:0:0], h.roots[n:]...)
		h.diffs = append(h.diffs[:0:0], h.diffs[n:]...)
	}
}

func (h *history) latestRoot() (hashing.Hash, bool) {
	if len(h.roots) == 0 {
		return hashing.Hash{}, false
	}
	return h.roots[len(h.roots)-1], true
}

func (h *history) retainedRoots() []hashing.Hash {
	out := make([]hashing.Hash, len(h.roots))
	copy(out, h.roots)
	return out
}

// overlayAt folds the reverse diffs newer than root into one overlay, or
// reports the root unknown. The newest occurrence of a recurring root wins
// (roots are canonical: equal roots mean equal contents, so any occurrence
// yields the same view and the newest needs the fewest diffs).
func (h *history) overlayAt(root hashing.Hash) (*overlay, error) {
	at := -1
	for i := len(h.roots) - 1; i >= 0; i-- {
		if h.roots[i] == root {
			at = i
			break
		}
	}
	if at < 0 {
		return nil, ErrRootNotRetained
	}
	ov := &overlay{
		accounts: make(map[hashing.Address]accPrev),
		slots:    make(map[SlotKey]slotPrev),
	}
	// Walk the commits after the target oldest-first: the value the state
	// held at the target root is the one the *first* later commit replaced.
	for i := at + 1; i < len(h.diffs); i++ {
		for _, ac := range h.diffs[i].accounts {
			if _, ok := ov.accounts[ac.Addr]; !ok {
				ov.accounts[ac.Addr] = accPrev{enc: ac.Prev}
			}
		}
		for _, sc := range h.diffs[i].slots {
			if _, ok := ov.slots[sc.Key]; !ok {
				ov.slots[sc.Key] = slotPrev{val: sc.Prev, existed: sc.PrevExisted}
			}
		}
	}
	return ov, nil
}

// overlay is the composed reverse diff between the latest state and one
// retained root: every key present here had a different value at that root.
type overlay struct {
	accounts map[hashing.Address]accPrev
	slots    map[SlotKey]slotPrev
}

// histReader overlays a composed reverse diff on the backend's latest flat
// state, yielding the state as of a retained root. Valid until the next
// Commit (the overlay maps are immutable, but the base moves).
type histReader struct {
	base Reader
	ov   *overlay
}

var _ Reader = (*histReader)(nil)

func (r *histReader) Account(addr hashing.Address) ([]byte, bool) {
	if prev, ok := r.ov.accounts[addr]; ok {
		return prev.enc, prev.enc != nil
	}
	return r.base.Account(addr)
}

func (r *histReader) Slot(k SlotKey) (Word, bool) {
	if prev, ok := r.ov.slots[k]; ok {
		return prev.val, prev.existed
	}
	return r.base.Slot(k)
}

func (r *histReader) IterateAccounts(fn func(addr hashing.Address, enc []byte) bool) {
	// Merge the base's sorted walk with the overlay's sorted keys: overlay
	// entries replace (or hide) base entries and resurrect accounts the
	// later commits deleted from the base.
	ovAddrs := make([]hashing.Address, 0, len(r.ov.accounts))
	for addr := range r.ov.accounts {
		ovAddrs = append(ovAddrs, addr)
	}
	sort.Slice(ovAddrs, func(i, j int) bool {
		return bytes.Compare(ovAddrs[i][:], ovAddrs[j][:]) < 0
	})
	i := 0
	emitOverlayUpTo := func(limit *hashing.Address) bool {
		for i < len(ovAddrs) {
			addr := ovAddrs[i]
			if limit != nil && bytes.Compare(addr[:], (*limit)[:]) >= 0 {
				return true
			}
			i++
			if prev := r.ov.accounts[addr]; prev.enc != nil {
				if !fn(addr, prev.enc) {
					return false
				}
			}
		}
		return true
	}
	done := false
	r.base.IterateAccounts(func(addr hashing.Address, enc []byte) bool {
		if !emitOverlayUpTo(&addr) {
			done = true
			return false
		}
		if i < len(ovAddrs) && ovAddrs[i] == addr {
			i++
			prev := r.ov.accounts[addr]
			if prev.enc == nil {
				return true // account did not exist at the target root
			}
			return fn(addr, prev.enc)
		}
		return fn(addr, enc)
	})
	if !done {
		emitOverlayUpTo(nil)
	}
}

func (r *histReader) IterateStorage(addr hashing.Address, fn func(key, val Word) bool) {
	ovKeys := make([]Word, 0)
	for k := range r.ov.slots {
		if k.Addr == addr {
			ovKeys = append(ovKeys, k.Key)
		}
	}
	sort.Slice(ovKeys, func(i, j int) bool {
		return bytes.Compare(ovKeys[i][:], ovKeys[j][:]) < 0
	})
	i := 0
	emitOverlayUpTo := func(limit *Word) bool {
		for i < len(ovKeys) {
			key := ovKeys[i]
			if limit != nil && bytes.Compare(key[:], (*limit)[:]) >= 0 {
				return true
			}
			i++
			if prev := r.ov.slots[SlotKey{Addr: addr, Key: key}]; prev.existed {
				if !fn(key, prev.val) {
					return false
				}
			}
		}
		return true
	}
	done := false
	r.base.IterateStorage(addr, func(key, val Word) bool {
		if !emitOverlayUpTo(&key) {
			done = true
			return false
		}
		if i < len(ovKeys) && ovKeys[i] == key {
			i++
			prev := r.ov.slots[SlotKey{Addr: addr, Key: key}]
			if !prev.existed {
				return true // slot was empty at the target root
			}
			return fn(key, prev.val)
		}
		return fn(key, val)
	})
	if !done {
		emitOverlayUpTo(nil)
	}
}
