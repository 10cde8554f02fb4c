package backend

import (
	"bytes"
	"cmp"
	"errors"
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
// The index is split by record kind, and slots again by contract: each
// contract's live slots are one key-ascending run, so iterating one
// contract's storage touches that contract's keys only — never the rest of
// the state — and needs no sort.
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
	slots     map[hashing.Address]contractSlots
	codes     map[hashing.Hash]loc
	liveBytes int64        // record bytes reachable through the index
	deadBytes int64        // record bytes superseded or deleted
	root      hashing.Hash // latest committed root
	hasRoot   bool

	// CompactMinBytes is the dead-byte floor below which compaction never
	// triggers (avoids rewriting tiny stores). Tests lower it.
	CompactMinBytes int64

	// runBuf is IterateStorage's run buffer. A reader takes it for the
	// length of its walk and puts it back; one that finds it taken by a
	// concurrent reader allocates its own.
	runBuf atomic.Pointer[[]byte]
	// changed is Commit's scratch: one contract's slot changes, then the
	// keys among them its run does not hold yet.
	changed contractSlots

	closed bool
}

// loc locates one live value inside a segment.
type loc struct {
	seg    uint32
	off    int64 // value offset
	vlen   uint32
	reclen uint32 // full record length, for dead-byte accounting
}

// slot is one entry of a contract's run: a key and where its value lives.
// During replay and inside Commit a tombstone is a slot too, with vlen 0
// (a live slot value is always wordSize bytes).
type slot struct {
	key Word
	loc
}

func (s slot) tombstone() bool { return s.vlen == 0 }

// contractSlots is the run of one contract's live slots, ascending by key.
// Readers only read it, so concurrent walks need no synchronization;
// Commit, which the owner never runs beside a read, merges into it.
type contractSlots []slot

// find returns the position of key in the run, or where it would go.
func (cs contractSlots) find(key Word) (int, bool) {
	return slices.BinarySearchFunc(cs, key, func(s slot, k Word) int { return cmpWord(s.key, k) })
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
		slots:           make(map[hashing.Address]contractSlots),
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
	f.settleRuns()
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
// newest segment, whose last record may be torn. Slot records only pile up
// in their contract's run, in log order; settleRuns turns the piles into
// runs once every segment is read.
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

// applyRecord folds one decoded record into the index. A slot record, upsert
// or tombstone, is appended to its contract's pile for settleRuns: only
// replay passes slot records here.
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
	case recSlot, recSlotDel:
		addr := hashing.Address(rec.Key[:addrSize])
		f.slots[addr] = append(f.slots[addr], slot{key: Word(rec.Key[addrSize:]), loc: l})
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

// settleRuns turns every contract's pile of replayed slot records into its
// run: one sort by key, then log position, after which the last record of
// each key decides — a value is live, a tombstone drops the key — and every
// other record of the key is dead, exactly as applying them one by one
// would have counted it. A compacted segment holds each contract's slots
// in key order already, so the sort mostly confirms.
func (f *File) settleRuns() {
	for addr, pile := range f.slots {
		slices.SortFunc(pile, func(a, b slot) int {
			if c := cmpWord(a.key, b.key); c != 0 {
				return c
			}
			if a.seg != b.seg {
				return cmp.Compare(a.seg, b.seg)
			}
			return cmp.Compare(a.off, b.off)
		})
		run := pile[:0]
		for i, s := range pile {
			if i+1 < len(pile) && pile[i+1].key == s.key || s.tombstone() {
				f.deadBytes += int64(s.reclen)
				continue
			}
			f.liveBytes += int64(s.reclen)
			run = append(run, s)
		}
		switch {
		case len(run) == 0:
			delete(f.slots, addr)
		case cap(run) > 2*len(run):
			f.slots[addr] = slices.Clone(run)
		default:
			f.slots[addr] = run
		}
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
	i, ok := cs.find(k.Key)
	if !ok {
		return Word{}, false
	}
	var w Word
	f.mustRead(cs[i].seg, cs[i].off, w[:])
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

// IterateStorage implements Backend. It walks addr's run, and fetches slots
// that sit back to back in a segment — a creation or a Move2 writes a
// contract's slots that way, in key order — with one read per stretch
// instead of one per slot.
func (f *File) IterateStorage(addr hashing.Address, fn func(key, val Word) bool) {
	f.walkRun(f.slots[addr], func(s *slot, val []byte) bool { return fn(s.key, Word(val)) })
}

// IterateStorageRange is IterateStorage over the slots of addr whose keys
// lie in [lo, hi]: one binary search finds the first, and the walk reads
// back-to-back values with one read per stretch. key and val are valid only
// during the callback.
func (f *File) IterateStorageRange(addr hashing.Address, lo, hi Word, fn func(key, val []byte) bool) {
	cs := f.slots[addr]
	i, _ := cs.find(lo)
	j, found := cs.find(hi)
	if found {
		j++
	}
	if i < j {
		f.walkRun(cs[i:j], func(s *slot, val []byte) bool { return fn(s.key[:], val) })
	}
}

// walkRun reads the values of the run cs and hands fn each slot with its
// value, which is valid only during the call.
func (f *File) walkRun(cs contractSlots, fn func(s *slot, val []byte) bool) {
	if len(cs) == 0 {
		return
	}
	bp := f.runBuf.Swap(nil)
	if bp == nil {
		buf := make([]byte, maxRunSlots*slotRecLen)
		bp = &buf
	}
	defer f.runBuf.Store(bp)
	buf := *bp
	for len(cs) > 0 {
		n := 1
		for n < len(cs) && n < maxRunSlots && cs[n].seg == cs[0].seg && cs[n].off == cs[n-1].off+slotRecLen {
			n++
		}
		f.mustRead(cs[0].seg, cs[0].off, buf[:(n-1)*slotRecLen+wordSize])
		for j := range cs[:n] {
			if !fn(&cs[j], buf[j*slotRecLen:j*slotRecLen+wordSize]) {
				return
			}
		}
		cs = cs[n:]
	}
}

// SlotCount returns the number of live slots addr holds: the length of its
// IterateStorage walk.
func (f *File) SlotCount(addr hashing.Address) int { return len(f.slots[addr]) }

// Commit implements Backend: append the batch and a commit marker to the
// active segment, fold it into the index, and compact if the dead-byte
// ratio warrants it. batch.Slots must be strictly ascending by (address,
// key), as Batch promises: each contract's changes are merged into its run
// in one pass.
//
// The whole batch is encoded and written before any of it is indexed. A
// failed or short write truncates the segment back to what the last commit
// left and returns the error with the index, the byte counts and the
// latest root untouched, so the store still serves, and reopens to, the
// last good commit.
func (f *File) Commit(root hashing.Hash, batch Batch) error {
	for i := 1; i < len(batch.Slots); i++ {
		a, b := batch.Slots[i-1].Key, batch.Slots[i].Key
		if c := cmpAddr(a.Addr, b.Addr); c > 0 || c == 0 && cmpWord(a.Key, b.Key) >= 0 {
			return fmt.Errorf("backend: commit: slot changes not strictly ascending at %d", i)
		}
	}
	f.buf = f.buf[:0]
	walkBatch(root, batch, func(kind byte, key, value []byte) {
		f.buf = appendRecord(f.buf, kind, key, value)
	})
	if _, err := f.segs[f.active].Write(f.buf); err != nil {
		// O_APPEND writes at the end whatever the handle's offset, so cutting
		// the file back is all a retry needs.
		if terr := os.Truncate(segmentPath(f.dir, f.active), f.written); terr != nil {
			err = errors.Join(err, terr)
		}
		return fmt.Errorf("backend: append: %w", err)
	}
	f.index(root, batch)
	f.written += int64(len(f.buf))
	if f.deadBytes > f.liveBytes && f.deadBytes > f.CompactMinBytes {
		if err := f.compact(); err != nil {
			return err
		}
	}
	return nil
}

// walkBatch hands emit the records of a commit in the order Commit writes
// them: accounts, slots, code blobs, then the commit marker.
func walkBatch(root hashing.Hash, batch Batch, emit func(kind byte, key, value []byte)) {
	for _, ac := range batch.Accounts {
		if ac.Cur != nil {
			emit(recAccount, ac.Addr[:], ac.Cur)
		} else {
			emit(recAccountDel, ac.Addr[:], nil)
		}
	}
	var slotKey [slotSize]byte
	for i := range batch.Slots {
		sc := &batch.Slots[i]
		copy(slotKey[:addrSize], sc.Key.Addr[:])
		copy(slotKey[addrSize:], sc.Key.Key[:])
		if sc.CurExists {
			emit(recSlot, slotKey[:], sc.Cur[:])
		} else {
			emit(recSlotDel, slotKey[:], nil)
		}
	}
	for _, cb := range batch.Codes {
		emit(recCode, cb.Hash[:], cb.Code)
	}
	emit(recCommit, root[:], nil)
}

// index folds a batch Commit has just written at f.written into the index
// and the byte counts, each contract's slot changes merged into its run in
// one pass.
func (f *File) index(root hashing.Hash, batch Batch) {
	off := f.written
	var addr hashing.Address
	changed := f.changed[:0]
	walkBatch(root, batch, func(kind byte, key, value []byte) {
		rec := record{Kind: kind, Key: key, Value: value}
		n := recordLen(kind, len(key), len(value))
		at := off
		off += int64(n)
		if kind != recSlot && kind != recSlotDel {
			if len(changed) > 0 {
				changed = f.mergeSlots(addr, changed)
			}
			f.applyRecord(f.active, at, rec, n)
			return
		}
		if a := hashing.Address(key[:addrSize]); a != addr || len(changed) == 0 {
			if len(changed) > 0 {
				changed = f.mergeSlots(addr, changed)
			}
			addr = a
		}
		changed = append(changed, slot{key: Word(key[addrSize:]), loc: loc{
			seg:    f.active,
			off:    at + int64(valueOffset(rec)),
			vlen:   uint32(len(value)),
			reclen: uint32(n),
		}})
	})
	f.changed = changed
}

// mergeSlots folds one contract's changes, ascending by key (a tombstone
// for a deletion), into its run and accounts for the bytes. An overwrite
// replaces the key's loc in place. Deletions are then squeezed out in one
// forward pass, and new keys merged in from the back in one backward pass,
// so k changes to an n-slot run cost O(k log n) when they only overwrite
// and O(n + k) otherwise — never a shift of the run per key. A change whose
// key is at, or belongs at, the run position after the previous change's is
// found without a search: a contract written or deleted whole costs O(n).
// It returns changes emptied, for reuse.
func (f *File) mergeSlots(addr hashing.Address, changes contractSlots) contractSlots {
	cs := f.slots[addr]
	added, dropped := changes[:0], 0
	next := 0 // cs[:next] holds only keys below the next change's
	for _, ch := range changes {
		i, found := next, false
		if i < len(cs) {
			if c := cmpWord(cs[i].key, ch.key); c == 0 {
				found = true
			} else if c < 0 {
				i, found = cs[i+1:].find(ch.key)
				i += next + 1
			}
		}
		next = i
		if found {
			next++
		}
		switch {
		case ch.tombstone():
			var old loc
			if found {
				old = cs[i].loc
				cs[i].vlen = 0
				dropped++
			}
			f.deleted(old, found, int(ch.reclen))
		case found:
			f.replaced(cs[i].loc, true, int(ch.reclen))
			cs[i].loc = ch.loc
		default:
			f.replaced(loc{}, false, int(ch.reclen))
			added = append(added, ch)
		}
	}
	if dropped > 0 {
		cs = slices.DeleteFunc(cs, func(s slot) bool { return s.tombstone() })
	}
	if len(added) > 0 {
		n := len(cs)
		cs = slices.Grow(cs, len(added))[:n+len(added)]
		for i, j, w := n-1, len(added)-1, len(cs)-1; j >= 0; w-- {
			if i >= 0 && cmpWord(cs[i].key, added[j].key) > 0 {
				cs[w] = cs[i]
				i--
			} else {
				cs[w] = added[j]
				j--
			}
		}
	}
	if len(cs) == 0 {
		delete(f.slots, addr)
	} else {
		f.slots[addr] = cs
	}
	return changes[:0]
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
	slots := make(map[hashing.Address]contractSlots, len(f.slots))
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
			cs := slices.Clone(f.slots[addr])
			copy(slotKey[:addrSize], addr[:])
			for i := range cs {
				copy(slotKey[addrSize:], cs[i].key[:])
				l, err := move(recSlot, slotKey[:], cs[i].loc)
				if err != nil {
					return err
				}
				cs[i].loc = l
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
		n += len(cs)
	}
	return n
}

// SegmentBytes returns the live/dead byte split of the store.
func (f *File) SegmentBytes() (live, dead int64) { return f.liveBytes, f.deadBytes }

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
