package backend

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scmove/internal/hashing"
)

func tAddr(b byte) hashing.Address {
	var a hashing.Address
	a[0] = b
	return a
}

func tWord(b byte) Word {
	var w Word
	w[31] = b
	return w
}

func tRoot(b byte) hashing.Hash {
	return hashing.Sum([]byte{b})
}

func accountBatch(pairs ...any) Batch {
	var b Batch
	for i := 0; i < len(pairs); i += 2 {
		addr := pairs[i].(hashing.Address)
		var cur []byte
		if pairs[i+1] != nil {
			cur = pairs[i+1].([]byte)
		}
		b.Accounts = append(b.Accounts, AccountChange{Addr: addr, Cur: cur})
	}
	return b
}

func TestFileCommitReadReopen(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	codeHash := hashing.Sum([]byte("code"))
	batch := accountBatch(tAddr(1), []byte("acct-1"), tAddr(2), []byte("acct-2"))
	batch.Slots = []SlotChange{
		{Key: SlotKey{Addr: tAddr(1), Key: tWord(7)}, Cur: tWord(42), CurExists: true},
	}
	batch.Codes = []CodeBlob{{Hash: codeHash, Code: []byte("code")}}
	if err := f.Commit(tRoot(1), batch); err != nil {
		t.Fatal(err)
	}

	if v, ok := f.Account(tAddr(1)); !ok || string(v) != "acct-1" {
		t.Fatalf("account 1: %q %v", v, ok)
	}
	if v, ok := f.Slot(SlotKey{Addr: tAddr(1), Key: tWord(7)}); !ok || v != tWord(42) {
		t.Fatalf("slot: %x %v", v, ok)
	}
	if c, ok := codeOf(f, codeHash); !ok || string(c) != "code" {
		t.Fatalf("code: %q %v", c, ok)
	}
	if _, ok := f.Account(tAddr(9)); ok {
		t.Fatal("phantom account")
	}

	// Overwrite, delete, and a second root.
	batch2 := accountBatch(tAddr(1), []byte("acct-1v2"), tAddr(2), nil)
	batch2.Slots = []SlotChange{
		{Key: SlotKey{Addr: tAddr(1), Key: tWord(7)}, Prev: tWord(42), PrevExisted: true},
	}
	if err := f.Commit(tRoot(2), batch2); err != nil {
		t.Fatal(err)
	}
	if v, ok := f.Account(tAddr(1)); !ok || string(v) != "acct-1v2" {
		t.Fatalf("account 1 after overwrite: %q %v", v, ok)
	}
	if _, ok := f.Account(tAddr(2)); ok {
		t.Fatal("deleted account still readable")
	}
	if _, ok := f.Slot(SlotKey{Addr: tAddr(1), Key: tWord(7)}); ok {
		t.Fatal("deleted slot still readable")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if root, ok := re.LatestRoot(); !ok || root != tRoot(2) {
		t.Fatalf("reopened root %s %v, want %s", root, ok, tRoot(2))
	}
	if v, ok := re.Account(tAddr(1)); !ok || string(v) != "acct-1v2" {
		t.Fatalf("reopened account: %q %v", v, ok)
	}
	if _, ok := re.Account(tAddr(2)); ok {
		t.Fatal("reopened deleted account")
	}
	if c, ok := codeOf(re, codeHash); !ok || string(c) != "code" {
		t.Fatalf("reopened code: %q %v", c, ok)
	}
	var accounts []hashing.Address
	re.IterateAccounts(func(a hashing.Address, enc []byte) bool {
		accounts = append(accounts, a)
		return true
	})
	if len(accounts) != 1 || accounts[0] != tAddr(1) {
		t.Fatalf("reopened account set: %v", accounts)
	}
}

func TestFileTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(tRoot(1), accountBatch(tAddr(1), []byte("durable"))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: half a record lands on disk.
	path := segmentPath(dir, 0)
	a2 := tAddr(2)
	torn := appendRecord(nil, recAccount, a2[:], []byte("lost"))
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	file.Close()

	re, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if v, ok := re.Account(tAddr(1)); !ok || string(v) != "durable" {
		t.Fatalf("durable record lost: %q %v", v, ok)
	}
	if _, ok := re.Account(tAddr(2)); ok {
		t.Fatal("torn record surfaced")
	}
	if root, ok := re.LatestRoot(); !ok || root != tRoot(1) {
		t.Fatalf("root after torn tail: %s %v", root, ok)
	}
	// The store must keep accepting commits after truncating the tail.
	if err := re.Commit(tRoot(2), accountBatch(tAddr(3), []byte("after"))); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if v, ok := re2.Account(tAddr(3)); !ok || string(v) != "after" {
		t.Fatalf("post-recovery commit lost: %q %v", v, ok)
	}
}

func TestFileCorruptionLosesOnlySuffix(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(tRoot(1), accountBatch(tAddr(1), []byte("first"))); err != nil {
		t.Fatal(err)
	}
	mark := f.written
	if err := f.Commit(tRoot(2), accountBatch(tAddr(2), []byte("second"))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Flip a byte inside the second commit: everything after the corruption
	// is discarded, everything before survives.
	path := segmentPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[mark+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen with corrupt suffix: %v", err)
	}
	defer re.Close()
	if v, ok := re.Account(tAddr(1)); !ok || string(v) != "first" {
		t.Fatalf("prefix record lost: %q %v", v, ok)
	}
	if _, ok := re.Account(tAddr(2)); ok {
		t.Fatal("corrupt record surfaced")
	}
	if root, ok := re.LatestRoot(); !ok || root != tRoot(1) {
		t.Fatalf("root rolled to %s %v, want first commit", root, ok)
	}
}

func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	f.CompactMinBytes = 1
	// Overwrite the same key until dead bytes outweigh live ones.
	var root byte
	for i := 0; i < 8; i++ {
		root++
		if err := f.Commit(tRoot(root), accountBatch(tAddr(1), bytes.Repeat([]byte{byte(i)}, 64))); err != nil {
			t.Fatal(err)
		}
	}
	live, dead := f.SegmentBytes()
	if dead != 0 {
		t.Fatalf("compaction never ran: live=%d dead=%d", live, dead)
	}
	if f.LiveKeys() != 1 {
		t.Fatalf("live keys after compaction: %d", f.LiveKeys())
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("old segments not deleted: %v", ids)
	}
	if v, ok := f.Account(tAddr(1)); !ok || !bytes.Equal(v, bytes.Repeat([]byte{7}, 64)) {
		t.Fatalf("value after compaction: %x %v", v, ok)
	}
	// Commits keep working into the compacted segment, and a reopen sees
	// the full live set plus the re-asserted root.
	if err := f.Commit(tRoot(root+1), accountBatch(tAddr(2), []byte("post"))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if r, ok := re.LatestRoot(); !ok || r != tRoot(root+1) {
		t.Fatalf("root after compacted reopen: %s %v", r, ok)
	}
	if v, ok := re.Account(tAddr(1)); !ok || !bytes.Equal(v, bytes.Repeat([]byte{7}, 64)) {
		t.Fatalf("compacted value lost on reopen: %x %v", v, ok)
	}
	if v, ok := re.Account(tAddr(2)); !ok || string(v) != "post" {
		t.Fatalf("post-compaction commit lost: %q %v", v, ok)
	}
}

// TestIterateStorageCostIsPerContract pins what a storage walk costs on
// the file store: the contract's own keys, read run by run — whatever else
// the store holds. A 1000-slot contract is iterated alone and beside
// 100 000 unrelated accounts (a tenth of them contracts with a slot of
// their own); the walk may neither allocate more nor get slower, and its
// allocations stay far below one per slot. One slot is overwritten later, so
// the walk also has to cross a run boundary.
func TestIterateStorageCostIsPerContract(t *testing.T) {
	const slots = 1000
	contract := tAddr(0xC0)
	slotKey := func(i int) Word {
		var w Word
		w[30], w[31] = byte(i>>8), byte(i)
		return w
	}
	measure := func(unrelated int) (allocs float64, best time.Duration) {
		f, err := OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var crowd Batch
		for i := 0; i < unrelated; i++ {
			var a hashing.Address
			a[0], a[1], a[2], a[3] = 0x01, byte(i>>16), byte(i>>8), byte(i)
			crowd.Accounts = append(crowd.Accounts, AccountChange{Addr: a, Cur: []byte("unrelated")})
			if i%10 == 0 {
				crowd.Slots = append(crowd.Slots, SlotChange{Key: SlotKey{Addr: a, Key: tWord(1)}, Cur: tWord(2), CurExists: true})
			}
		}
		if err := f.Commit(tRoot(1), crowd); err != nil {
			t.Fatal(err)
		}
		var own Batch
		for i := 0; i < slots; i++ {
			own.Slots = append(own.Slots, SlotChange{Key: SlotKey{Addr: contract, Key: slotKey(i)}, Cur: tWord(byte(i%251 + 1)), CurExists: true})
		}
		if err := f.Commit(tRoot(2), own); err != nil {
			t.Fatal(err)
		}
		rewrite := Batch{Slots: []SlotChange{{Key: SlotKey{Addr: contract, Key: slotKey(500)}, Cur: tWord(0xFF), CurExists: true}}}
		if err := f.Commit(tRoot(3), rewrite); err != nil {
			t.Fatal(err)
		}
		walk := func() {
			i := 0
			f.IterateStorage(contract, func(key, val Word) bool {
				want := tWord(byte(i%251 + 1))
				if i == 500 {
					want = tWord(0xFF)
				}
				if key != slotKey(i) || val != want {
					t.Fatalf("slot %d: got %x = %x", i, key, val)
				}
				i++
				return true
			})
			if i != slots {
				t.Fatalf("walk visited %d slots, want %d", i, slots)
			}
		}
		walk()
		allocs = testing.AllocsPerRun(10, walk)
		for r := 0; r < 20; r++ {
			start := time.Now()
			walk()
			if d := time.Since(start); r == 0 || d < best {
				best = d
			}
		}
		return allocs, best
	}
	aloneAllocs, aloneBest := measure(0)
	crowdAllocs, crowdBest := measure(100_000)
	if crowdAllocs > aloneAllocs || aloneAllocs > slots/100 {
		t.Fatalf("allocations per walk: %.0f alone, %.0f beside 100k accounts; want equal and at most %d", aloneAllocs, crowdAllocs, slots/100)
	}
	if crowdBest > 4*aloneBest+200*time.Microsecond {
		t.Fatalf("walk takes %v alone and %v beside 100k accounts", aloneBest, crowdBest)
	}
}

// storeOf1000 returns a store holding one 1000-slot contract written in one
// commit, then one slot rewritten later so a walk crosses a run boundary,
// and the contract's slots as a walk must list them.
func storeOf1000(t *testing.T) (*File, hashing.Address, []Word) {
	t.Helper()
	f, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	contract := tAddr(0xC0)
	var own Batch
	for i := 0; i < 1000; i++ {
		var key Word
		key[30], key[31] = byte(i>>8), byte(i)
		own.Slots = append(own.Slots, SlotChange{Key: SlotKey{Addr: contract, Key: key}, Cur: tWord(byte(i%251 + 1)), CurExists: true})
	}
	if err := f.Commit(tRoot(1), own); err != nil {
		t.Fatal(err)
	}
	own.Slots[500].Cur = tWord(0xFF)
	if err := f.Commit(tRoot(2), Batch{Slots: own.Slots[500:501]}); err != nil {
		t.Fatal(err)
	}
	want := make([]Word, 0, 2*len(own.Slots))
	for _, sc := range own.Slots {
		want = append(want, sc.Key.Key, sc.Cur)
	}
	return f, contract, want
}

// TestIterateStorageWarmAllocFree pins that a storage walk allocates
// nothing once the store has walked a contract before: the contract's run
// is already in key order and the read buffer is the store's own.
func TestIterateStorageWarmAllocFree(t *testing.T) {
	f, contract, want := storeOf1000(t)
	walk := func() {
		i := 0
		f.IterateStorage(contract, func(key, val Word) bool {
			if key != want[2*i] || val != want[2*i+1] {
				t.Fatalf("slot %d: got %x = %x", i, key, val)
			}
			i++
			return true
		})
		if i != len(want)/2 || i != f.SlotCount(contract) {
			t.Fatalf("walk visited %d slots, SlotCount says %d, want %d", i, f.SlotCount(contract), len(want)/2)
		}
	}
	walk()
	if a := testing.AllocsPerRun(20, walk); a != 0 {
		t.Fatalf("warm walk of 1000 slots allocates %.0f objects, want 0", a)
	}
}

// TestIterateStorageConcurrentReaders runs eight walks of one contract at
// once, cold, so they race for the store's read buffer and share the
// contract's run: each must list exactly what a serial walk lists.
func TestIterateStorageConcurrentReaders(t *testing.T) {
	f, contract, want := storeOf1000(t)
	const readers = 8
	got := make([][]Word, readers)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got[r] = got[r][:0]
				f.IterateStorage(contract, func(key, val Word) bool {
					got[r] = append(got[r], key, val)
					return true
				})
				if !slices.Equal(got[r], want) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for r := range got {
		if !slices.Equal(got[r], want) {
			t.Fatalf("reader %d listed %d words, differing from the serial walk's %d", r, len(got[r]), len(want))
		}
	}
}

// TestFileUnreadableValuePanics closes the active segment underneath a store
// that indexes a committed slot: every read of an indexed value must panic
// rather than read the value as absent, which would let the EVM read a zero
// slot and a rebuilt storage tree drop slots without an error anywhere.
func TestFileUnreadableValuePanics(t *testing.T) {
	f, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := accountBatch(tAddr(1), []byte("acct"))
	b.Slots = []SlotChange{{Key: SlotKey{Addr: tAddr(1), Key: tWord(1)}, Cur: tWord(9), CurExists: true}}
	if err := f.Commit(tRoot(1), b); err != nil {
		t.Fatal(err)
	}
	f.segs[f.active].Close()
	for name, read := range map[string]func(){
		"Slot":    func() { f.Slot(SlotKey{Addr: tAddr(1), Key: tWord(1)}) },
		"Account": func() { f.Account(tAddr(1)) },
		"IterateStorage": func() {
			f.IterateStorage(tAddr(1), func(key, val Word) bool { return true })
		},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s of an unreadable value returned instead of panicking", name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, "segment 0 at offset") {
					t.Errorf("%s panicked with %q, want it to name segment and offset", name, msg)
				}
			}()
			read()
		}()
	}
}

// codeOf reads one code blob back through IterateCodes.
func codeOf(f *File, h hashing.Hash) (code []byte, ok bool) {
	f.IterateCodes(func(got hashing.Hash, c []byte) bool {
		if got == h {
			code, ok = c, true
		}
		return !ok
	})
	return code, ok
}

// BenchmarkCommitDeleteContract times one commit that deletes every slot
// of a 50 000-slot contract, what pruning a moved-away contract's stale
// copy writes. The contract is rewritten, untimed, before each one.
func BenchmarkCommitDeleteContract(b *testing.B) {
	const slots = 50_000
	f, err := OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	contract := tAddr(0xC0)
	write, wipe := Batch{Slots: make([]SlotChange, slots)}, Batch{Slots: make([]SlotChange, slots)}
	for i := range write.Slots {
		var key Word
		key[29], key[30], key[31] = byte(i>>16), byte(i>>8), byte(i)
		write.Slots[i] = SlotChange{Key: SlotKey{Addr: contract, Key: key}, Cur: tWord(byte(i%251 + 1)), CurExists: true}
		wipe.Slots[i] = SlotChange{Key: write.Slots[i].Key, Prev: write.Slots[i].Cur, PrevExisted: true}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := f.Commit(tRoot(1), write); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := f.Commit(tRoot(2), wipe); err != nil {
			b.Fatal(err)
		}
	}
	if n := f.SlotCount(contract); n != 0 {
		b.Fatalf("%d slots left", n)
	}
}

// TestFailedCommitLeavesStoreAsItWas fails a commit's segment write (the
// active segment's handle swapped for a read-only one of the same file) and
// requires the store to read exactly as before it: slots, runs, counts,
// byte accounting, root and append offset. The next commit on a writable
// handle succeeds, and a reopen gives its root.
func TestFailedCommitLeavesStoreAsItWas(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := tAddr(1)
	good := accountBatch(a, []byte("acct-1"))
	for k := byte(1); k <= 4; k++ {
		good.Slots = append(good.Slots, SlotChange{Key: SlotKey{Addr: a, Key: tWord(k)}, Cur: tWord(10 + k), CurExists: true})
	}
	if err := f.Commit(tRoot(1), good); err != nil {
		t.Fatal(err)
	}
	type view struct {
		slots          []string
		count, live    int
		liveB, deadB   int64
		root           hashing.Hash
		hasRoot        bool
		written        int64
		slot2, slot9   Word
		found2, found9 bool
	}
	look := func() view {
		var v view
		f.IterateStorage(a, func(key, val Word) bool {
			v.slots = append(v.slots, fmt.Sprintf("%x=%x", key[31], val[31]))
			return true
		})
		v.count, v.live = f.SlotCount(a), f.LiveKeys()
		v.liveB, v.deadB = f.SegmentBytes()
		v.root, v.hasRoot = f.LatestRoot()
		v.written = f.written
		v.slot2, v.found2 = f.Slot(SlotKey{Addr: a, Key: tWord(2)})
		v.slot9, v.found9 = f.Slot(SlotKey{Addr: a, Key: tWord(9)})
		return v
	}
	before := look()

	bad := accountBatch(a, []byte("acct-1b"), tAddr(2), []byte("acct-2"))
	bad.Slots = []SlotChange{
		{Key: SlotKey{Addr: a, Key: tWord(2)}, Prev: tWord(12), PrevExisted: true},
		{Key: SlotKey{Addr: a, Key: tWord(3)}, Prev: tWord(13), Cur: tWord(99), PrevExisted: true, CurExists: true},
		{Key: SlotKey{Addr: a, Key: tWord(9)}, Cur: tWord(9), CurExists: true},
	}
	bad.Codes = []CodeBlob{{Hash: hashing.Sum([]byte("code")), Code: []byte("code")}}
	writable := f.segs[f.active]
	ro, err := os.Open(segmentPath(dir, f.active))
	if err != nil {
		t.Fatal(err)
	}
	f.segs[f.active] = ro
	if err := f.Commit(tRoot(2), bad); err == nil {
		t.Fatal("a commit whose write failed returned no error")
	}
	f.segs[f.active] = writable
	ro.Close()
	if after := look(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a failed commit changed the store:\n before %+v\n after  %+v", before, after)
	}
	if _, ok := f.Account(tAddr(2)); ok {
		t.Fatal("a failed commit indexed an account")
	}
	if fi, err := os.Stat(segmentPath(dir, f.active)); err != nil || fi.Size() != f.written {
		t.Fatalf("segment is %v bytes (%v), the store wrote %d", fi.Size(), err, f.written)
	}

	if err := f.Commit(tRoot(3), bad); err != nil {
		t.Fatalf("the commit after a failed one: %v", err)
	}
	if v, ok := f.Slot(SlotKey{Addr: a, Key: tWord(3)}); !ok || v != tWord(99) {
		t.Fatalf("slot 3 = %x, %v after the retried commit", v, ok)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if root, ok := g.LatestRoot(); !ok || root != tRoot(3) {
		t.Fatalf("reopened root %x, want the last good commit's %x", root, tRoot(3))
	}
	if g.SlotCount(a) != 4 {
		t.Fatalf("reopened run holds %d slots, want 4", g.SlotCount(a))
	}
}
