package backend

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"scmove/internal/hashing"
)

// File is the log-structured file-backed store: a simplified RocksDB built
// only on the standard library. All writes append to the active segment
// file; an in-memory index maps each account, slot and code key to the
// offset of its newest value, so point reads are one ReadAt. Overwritten and
// deleted records become dead bytes; once they outweigh the live ones the
// store compacts by rewriting the live set into a fresh segment and deleting
// the old files. Commit markers carry the state root, so a reopened store
// knows which committed root its contents correspond to.
//
// The index is split by record kind, and slots again by contract, so
// iterating one contract's storage touches that contract's keys only —
// never the rest of the state.
//
// RSS is bounded by the index (a few dozen bytes per live key), not by the
// data: values live on disk until read.
type File struct {
	dir     string
	segs    map[uint32]*os.File // open segments, by id
	active  uint32              // id of the append segment
	buf     []byte              // batch encode scratch
	written int64               // bytes appended to the active segment

	accounts  map[hashing.Address]loc
	slots     map[hashing.Address]*contractSlots
	codes     map[hashing.Hash]loc
	liveBytes int64        // record bytes reachable through the index
	deadBytes int64        // record bytes superseded or deleted
	root      hashing.Hash // latest committed root
	hasRoot   bool

	// CompactMinBytes is the dead-byte floor below which compaction never
	// triggers (avoids rewriting tiny stores). Tests lower it.
	CompactMinBytes int64

	closed bool
}

// loc locates one live value inside a segment.
type loc struct {
	seg    uint32
	off    int64 // value offset
	vlen   uint32
	reclen uint32 // full record length, for dead-byte accounting
}

// contractSlots indexes the live slots of one contract.
type contractSlots struct {
	locs map[Word]loc
	// order caches the keys ascending until the key set changes (nil then);
	// overwriting a value keeps it. Atomic because IterateStorage fills it
	// and readers may run concurrently: two that race build the same slice.
	order atomic.Pointer[[]Word]
}

// sortedKeys returns the contract's slot keys in ascending order.
func (cs *contractSlots) sortedKeys() []Word {
	if p := cs.order.Load(); p != nil {
		return *p
	}
	keys := sortedMapKeys(cs.locs, cmpWord)
	cs.order.Store(&keys)
	return keys
}

var _ Backend = (*File)(nil)

const (
	defaultCompactMinBytes = 4 << 20

	// slotRecLen is the encoded length of every slot upsert record, and
	// therefore the distance between the values of two slots written back
	// to back.
	slotRecLen = 1 + slotSize + 1 + wordSize + crcSize
	// maxRunSlots bounds how many back-to-back slot values IterateStorage
	// fetches with one read (≈ 64 KiB).
	maxRunSlots = (64 << 10) / slotRecLen
)

// OpenFile opens (or creates) a log-structured store in dir, replaying the
// segments into the in-memory index. A truncated tail record in the newest
// segment — a torn write from a crash — is discarded; corruption anywhere
// else is an error. A reopened store holds the latest committed state
// only.
func OpenFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: open %s: %w", dir, err)
	}
	f := &File{
		dir:             dir,
		segs:            make(map[uint32]*os.File),
		accounts:        make(map[hashing.Address]loc),
		slots:           make(map[hashing.Address]*contractSlots),
		codes:           make(map[hashing.Hash]loc),
		CompactMinBytes: defaultCompactMinBytes,
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if err := f.replaySegment(id, i == len(ids)-1); err != nil {
			f.Close()
			return nil, err
		}
	}
	if len(ids) == 0 {
		if err := f.openActive(0); err != nil {
			return nil, err
		}
	} else {
		f.active = ids[len(ids)-1]
	}
	return f, nil
}

func segmentPath(dir string, id uint32) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.log", id))
}

// segmentIDs lists the segment files of dir in ascending id order.
func segmentIDs(dir string) ([]uint32, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("backend: read dir: %w", err)
	}
	var ids []uint32
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"), 10, 32)
		if err != nil {
			continue
		}
		ids = append(ids, uint32(n))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// openActive creates segment id and makes it the append target.
func (f *File) openActive(id uint32) error {
	file, err := os.OpenFile(segmentPath(f.dir, id), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("backend: create segment: %w", err)
	}
	f.segs[id] = file
	f.active = id
	f.written = 0
	return nil
}

// replaySegment loads one existing segment into the index. tail marks the
// newest segment, whose last record may be torn.
func (f *File) replaySegment(id uint32, tail bool) error {
	path := segmentPath(f.dir, id)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("backend: replay %s: %w", path, err)
	}
	off := 0
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			if tail {
				// Torn tail write: drop the partial record and continue
				// appending after the last good one.
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return fmt.Errorf("backend: truncate torn tail of %s: %w", path, terr)
				}
				break
			}
			return fmt.Errorf("backend: replay %s at offset %d: %w", path, off, err)
		}
		f.applyRecord(id, int64(off), rec, n)
		off += n
	}
	file, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("backend: reopen segment: %w", err)
	}
	f.segs[id] = file
	f.written = int64(off)
	return nil
}

// applyRecord folds one decoded record into the index.
func (f *File) applyRecord(seg uint32, off int64, rec record, reclen int) {
	l := loc{
		seg:    seg,
		off:    off + int64(valueOffset(rec)),
		vlen:   uint32(len(rec.Value)),
		reclen: uint32(reclen),
	}
	switch rec.Kind {
	case recAccount:
		addr := hashing.Address(rec.Key)
		old, ok := f.accounts[addr]
		f.accounts[addr] = l
		f.replaced(old, ok, reclen)
	case recAccountDel:
		addr := hashing.Address(rec.Key)
		old, ok := f.accounts[addr]
		delete(f.accounts, addr)
		f.deleted(old, ok, reclen)
	case recSlot:
		addr, key := hashing.Address(rec.Key[:addrSize]), Word(rec.Key[addrSize:])
		cs := f.slots[addr]
		if cs == nil {
			cs = &contractSlots{locs: make(map[Word]loc)}
			f.slots[addr] = cs
		}
		old, ok := cs.locs[key]
		cs.locs[key] = l
		if !ok {
			cs.order.Store(nil)
		}
		f.replaced(old, ok, reclen)
	case recSlotDel:
		addr, key := hashing.Address(rec.Key[:addrSize]), Word(rec.Key[addrSize:])
		var old loc
		var ok bool
		if cs := f.slots[addr]; cs != nil {
			if old, ok = cs.locs[key]; ok {
				delete(cs.locs, key)
				cs.order.Store(nil)
				if len(cs.locs) == 0 {
					delete(f.slots, addr)
				}
			}
		}
		f.deleted(old, ok, reclen)
	case recCode:
		h := hashing.Hash(rec.Key)
		old, ok := f.codes[h]
		f.codes[h] = l
		f.replaced(old, ok, reclen)
	case recCommit:
		copy(f.root[:], rec.Key)
		f.hasRoot = true
		f.deadBytes += int64(reclen) // markers are never live
	}
}

// replaced accounts for an upsert record of reclen bytes that superseded old
// (if one existed).
func (f *File) replaced(old loc, existed bool, reclen int) {
	if existed {
		f.deadBytes += int64(old.reclen)
		f.liveBytes -= int64(old.reclen)
	}
	f.liveBytes += int64(reclen)
}

// deleted accounts for a tombstone of reclen bytes that retired old (if one
// existed); the tombstone itself is never live.
func (f *File) deleted(old loc, existed bool, reclen int) {
	if existed {
		f.deadBytes += int64(old.reclen)
		f.liveBytes -= int64(old.reclen)
	}
	f.deadBytes += int64(reclen)
}

// read fills buf from segment seg at off.
func (f *File) read(seg uint32, off int64, buf []byte) error {
	file, ok := f.segs[seg]
	if !ok {
		return fmt.Errorf("backend: %s: segment %d is not open", f.dir, seg)
	}
	if _, err := file.ReadAt(buf, off); err != nil {
		return fmt.Errorf("backend: %s: read segment %d at offset %d: %w", f.dir, seg, off, err)
	}
	return nil
}

// mustRead is read for the read paths. The index says the value is live, so
// a failure means the store is corrupt or was closed underneath; reading the
// value as absent would fork the state root with no error anywhere.
func (f *File) mustRead(seg uint32, off int64, buf []byte) {
	if err := f.read(seg, off, buf); err != nil {
		panic(err.Error())
	}
}

// value fetches one live value from its segment.
func (f *File) value(l loc) []byte {
	out := make([]byte, l.vlen)
	f.mustRead(l.seg, l.off, out)
	return out
}

// Account implements Backend.
func (f *File) Account(addr hashing.Address) ([]byte, bool) {
	l, ok := f.accounts[addr]
	if !ok {
		return nil, false
	}
	return f.value(l), true
}

// Slot implements Backend.
func (f *File) Slot(k SlotKey) (Word, bool) {
	cs := f.slots[k.Addr]
	if cs == nil {
		return Word{}, false
	}
	l, ok := cs.locs[k.Key]
	if !ok {
		return Word{}, false
	}
	var w Word
	f.mustRead(l.seg, l.off, w[:])
	return w, true
}

// sortedMapKeys returns the keys of one index map in ascending order.
func sortedMapKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

func cmpAddr(a, b hashing.Address) int { return bytes.Compare(a[:], b[:]) }
func cmpHash(a, b hashing.Hash) int    { return bytes.Compare(a[:], b[:]) }
func cmpWord(a, b Word) int            { return bytes.Compare(a[:], b[:]) }

// IterateAccounts implements Backend.
func (f *File) IterateAccounts(fn func(addr hashing.Address, enc []byte) bool) {
	for _, addr := range sortedMapKeys(f.accounts, cmpAddr) {
		if !fn(addr, f.value(f.accounts[addr])) {
			return
		}
	}
}

// IterateStorage implements Backend. It walks addr's own keys only, and
// fetches slots that sit back to back in a segment — a creation or a Move2
// writes a contract's slots that way, in key order — with one read per run
// instead of one per slot.
func (f *File) IterateStorage(addr hashing.Address, fn func(key, val Word) bool) {
	cs := f.slots[addr]
	if cs == nil {
		return
	}
	keys := cs.sortedKeys()
	buf := make([]byte, min(len(keys), maxRunSlots)*slotRecLen)
	for i := 0; i < len(keys); {
		first := cs.locs[keys[i]]
		n := 1
		for last := first; i+n < len(keys) && n < maxRunSlots; n++ {
			next := cs.locs[keys[i+n]]
			if next.seg != last.seg || next.off != last.off+slotRecLen {
				break
			}
			last = next
		}
		run := keys[i : i+n]
		i += n
		f.mustRead(first.seg, first.off, buf[:(n-1)*slotRecLen+wordSize])
		for j, key := range run {
			if !fn(key, Word(buf[j*slotRecLen:j*slotRecLen+wordSize])) {
				return
			}
		}
	}
}

// Commit implements Backend: append the batch and a commit marker to the
// active segment, fold it into the index, and compact if the dead-byte
// ratio warrants it.
func (f *File) Commit(root hashing.Hash, batch Batch) error {
	f.buf = f.buf[:0]
	base := f.written
	encOne := func(kind byte, key, value []byte) (int64, int) {
		start := len(f.buf)
		f.buf = appendRecord(f.buf, kind, key, value)
		return base + int64(start), len(f.buf) - start
	}
	var slotKey [slotSize]byte
	for _, ac := range batch.Accounts {
		if ac.Cur != nil {
			off, n := encOne(recAccount, ac.Addr[:], ac.Cur)
			f.applyRecord(f.active, off, record{Kind: recAccount, Key: ac.Addr[:], Value: ac.Cur}, n)
		} else {
			off, n := encOne(recAccountDel, ac.Addr[:], nil)
			f.applyRecord(f.active, off, record{Kind: recAccountDel, Key: ac.Addr[:]}, n)
		}
	}
	for _, sc := range batch.Slots {
		copy(slotKey[:addrSize], sc.Key.Addr[:])
		copy(slotKey[addrSize:], sc.Key.Key[:])
		if sc.CurExists {
			val := sc.Cur
			off, n := encOne(recSlot, slotKey[:], val[:])
			f.applyRecord(f.active, off, record{Kind: recSlot, Key: slotKey[:], Value: val[:]}, n)
		} else {
			off, n := encOne(recSlotDel, slotKey[:], nil)
			f.applyRecord(f.active, off, record{Kind: recSlotDel, Key: slotKey[:]}, n)
		}
	}
	for _, cb := range batch.Codes {
		off, n := encOne(recCode, cb.Hash[:], cb.Code)
		f.applyRecord(f.active, off, record{Kind: recCode, Key: cb.Hash[:], Value: cb.Code}, n)
	}
	off, n := encOne(recCommit, root[:], nil)
	f.applyRecord(f.active, off, record{Kind: recCommit, Key: root[:]}, n)
	if _, err := f.segs[f.active].Write(f.buf); err != nil {
		return fmt.Errorf("backend: append: %w", err)
	}
	f.written += int64(len(f.buf))
	if f.deadBytes > f.liveBytes && f.deadBytes > f.CompactMinBytes {
		if err := f.compact(); err != nil {
			return err
		}
	}
	return nil
}

// compact rewrites the live set into a fresh segment and deletes the old
// files: accounts, then every contract's slots in key order (so each
// contract becomes one run for IterateStorage), then code blobs. The index
// is rewritten to point into the new segment.
func (f *File) compact() error {
	newID := f.active + 1
	out, err := os.OpenFile(segmentPath(f.dir, newID), os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("backend: compact: %w", err)
	}
	var written, live int64
	f.buf = f.buf[:0]
	flush := func() error {
		if _, err := out.Write(f.buf); err != nil {
			return fmt.Errorf("backend: compact write: %w", err)
		}
		written += int64(len(f.buf))
		f.buf = f.buf[:0]
		return nil
	}
	// move copies one live record into the new segment and returns where
	// its value now lives.
	move := func(kind byte, key []byte, old loc) (loc, error) {
		v := make([]byte, old.vlen)
		if err := f.read(old.seg, old.off, v); err != nil {
			return loc{}, fmt.Errorf("backend: compact: lost value for key %x: %w", key, err)
		}
		if len(f.buf) >= 1<<20 {
			if err := flush(); err != nil {
				return loc{}, err
			}
		}
		start := len(f.buf)
		f.buf = appendRecord(f.buf, kind, key, v)
		reclen := len(f.buf) - start
		live += int64(reclen)
		return loc{
			seg:    newID,
			off:    written + int64(start) + int64(valueOffset(record{Kind: kind, Key: key, Value: v})),
			vlen:   uint32(len(v)),
			reclen: uint32(reclen),
		}, nil
	}
	accounts := make(map[hashing.Address]loc, len(f.accounts))
	slots := make(map[hashing.Address]*contractSlots, len(f.slots))
	codes := make(map[hashing.Hash]loc, len(f.codes))
	rewrite := func() error {
		for _, addr := range sortedMapKeys(f.accounts, cmpAddr) {
			l, err := move(recAccount, addr[:], f.accounts[addr])
			if err != nil {
				return err
			}
			accounts[addr] = l
		}
		var slotKey [slotSize]byte
		for _, addr := range sortedMapKeys(f.slots, cmpAddr) {
			old := f.slots[addr]
			keys := old.sortedKeys()
			cs := &contractSlots{locs: make(map[Word]loc, len(keys))}
			cs.order.Store(&keys)
			copy(slotKey[:addrSize], addr[:])
			for _, key := range keys {
				copy(slotKey[addrSize:], key[:])
				l, err := move(recSlot, slotKey[:], old.locs[key])
				if err != nil {
					return err
				}
				cs.locs[key] = l
			}
			slots[addr] = cs
		}
		for _, h := range sortedMapKeys(f.codes, cmpHash) {
			l, err := move(recCode, h[:], f.codes[h])
			if err != nil {
				return err
			}
			codes[h] = l
		}
		// Re-assert the latest root in the new segment so a reopen of the
		// compacted store still knows it.
		if f.hasRoot {
			f.buf = appendRecord(f.buf, recCommit, f.root[:], nil)
		}
		return flush()
	}
	if err := rewrite(); err != nil {
		out.Close()
		return err
	}
	for id, file := range f.segs {
		file.Close()
		os.Remove(segmentPath(f.dir, id))
		delete(f.segs, id)
	}
	f.segs[newID] = out
	f.active = newID
	f.written = written
	f.accounts, f.slots, f.codes = accounts, slots, codes
	f.liveBytes = live
	f.deadBytes = 0
	return nil
}

// LatestRoot implements Backend: the root of the last commit marker, also
// after a reopen.
func (f *File) LatestRoot() (hashing.Hash, bool) { return f.root, f.hasRoot }

// IterateCodes visits every stored code blob in ascending hash order.
func (f *File) IterateCodes(fn func(h hashing.Hash, code []byte) bool) {
	for _, h := range sortedMapKeys(f.codes, cmpHash) {
		if !fn(h, f.value(f.codes[h])) {
			return
		}
	}
}

// LiveKeys returns the number of live index entries (accounts, slots and
// code blobs).
func (f *File) LiveKeys() int {
	n := len(f.accounts) + len(f.codes)
	for _, cs := range f.slots {
		n += len(cs.locs)
	}
	return n
}

// SegmentBytes returns the live/dead byte split of the store.
func (f *File) SegmentBytes() (live, dead int64) { return f.liveBytes, f.deadBytes }

// Sync forces the active segment to stable storage.
func (f *File) Sync() error {
	if file, ok := f.segs[f.active]; ok {
		return file.Sync()
	}
	return nil
}

// Close implements Backend. Closing an already-closed store is an error:
// it almost always means two owners both think they are responsible for the
// store's lifecycle, and silently succeeding would hide the double-free.
func (f *File) Close() error {
	if f.closed {
		return fmt.Errorf("backend: store %s already closed", f.dir)
	}
	f.closed = true
	var firstErr error
	for id, file := range f.segs {
		if err := file.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := file.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(f.segs, id)
	}
	return firstErr
}
