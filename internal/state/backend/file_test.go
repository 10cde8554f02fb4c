package backend

import (
	"bytes"
	"fmt"
	"os"
	"strings"
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
