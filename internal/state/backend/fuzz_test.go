package backend

import (
	"bytes"
	"slices"
	"testing"

	"scmove/internal/hashing"
)

// FuzzSegmentDecode drives the segment-record decoder with hostile input:
// truncated records, corrupted length prefixes, bad checksums, unknown
// kinds. The decoder is the crash-recovery boundary — whatever a torn or
// bit-flipped segment file contains, it must reject cleanly, never panic,
// never over-read, and anything it does accept must re-encode to an
// equivalent record.
func FuzzSegmentDecode(f *testing.F) {
	addr := tAddr(7)
	var slotKey [slotSize]byte
	copy(slotKey[:addrSize], addr[:])
	slotKey[addrSize+31] = 3
	root := hashing.Sum([]byte("root"))

	acctRec := appendRecord(nil, recAccount, addr[:], []byte("account-payload"))
	slotVal := tWord(9)
	slotRec := appendRecord(nil, recSlot, slotKey[:], slotVal[:])
	codeRec := appendRecord(nil, recCode, root[:], []byte{0xFE, 0x01})

	f.Add(acctRec)
	f.Add(slotRec)
	f.Add(codeRec)
	f.Add(appendRecord(nil, recAccountDel, addr[:], nil))
	f.Add(appendRecord(nil, recSlotDel, slotKey[:], nil))
	f.Add(appendRecord(nil, recCommit, root[:], nil))
	f.Add(appendRecord(acctRec, recSlot, slotKey[:], slotVal[:])) // two records back to back
	f.Add(acctRec[:len(acctRec)-3])                               // torn tail
	f.Add(acctRec[:1+addrSize])                                   // cut at the length prefix
	corrupt := bytes.Clone(slotRec)
	corrupt[len(corrupt)-1] ^= 0xFF // bad checksum
	f.Add(corrupt)
	f.Add([]byte{0x7F})                                     // unknown kind
	f.Add([]byte{recAccount, 0x01, 0xFF, 0xFF, 0xFF, 0x0F}) // absurd length claim
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the input like segment replay does: decode until error.
		off := 0
		for off < len(data) {
			rec, n, err := decodeRecord(data[off:])
			if err != nil {
				break
			}
			if n <= 0 || off+n > len(data) {
				t.Fatalf("decode consumed %d of %d remaining bytes", n, len(data)-off)
			}
			switch rec.Kind {
			case recAccount, recAccountDel:
				if len(rec.Key) != addrSize {
					t.Fatalf("account key length %d", len(rec.Key))
				}
			case recSlot, recSlotDel:
				if len(rec.Key) != slotSize {
					t.Fatalf("slot key length %d", len(rec.Key))
				}
			case recCommit, recCode:
				if len(rec.Key) != hashing.HashSize {
					t.Fatalf("hash key length %d", len(rec.Key))
				}
			default:
				t.Fatalf("decoder accepted unknown kind 0x%02x", rec.Kind)
			}
			if rec.Kind == recSlot && len(rec.Value) != wordSize {
				t.Fatalf("slot value length %d", len(rec.Value))
			}
			if len(rec.Value) > maxRecordValue {
				t.Fatalf("value length %d exceeds cap", len(rec.Value))
			}
			// An accepted record must survive a re-encode/re-decode round
			// trip bit for bit in its semantic fields. (Byte equality with
			// the input is not required: Uvarint tolerates non-minimal
			// length prefixes.)
			re := appendRecord(nil, rec.Kind, rec.Key, rec.Value)
			rec2, n2, err := decodeRecord(re)
			if err != nil {
				t.Fatalf("re-decode of accepted record failed: %v", err)
			}
			if n2 != len(re) || rec2.Kind != rec.Kind ||
				!bytes.Equal(rec2.Key, rec.Key) || !bytes.Equal(rec2.Value, rec.Value) {
				t.Fatalf("round trip mismatch: %+v vs %+v", rec, rec2)
			}
			off += n
		}
	})
}

// FuzzFileSlotIndex is a differential of the file store's slot index
// against a map model. The input is a sequence of operations — a commit of
// upserts and deletes across a few contracts, the deletion of a whole
// contract, a new contract, a commit under a compaction floor of one byte,
// and a close and reopen — and after each one every slot read, every
// contract's walk (order and values), SlotCount, LiveKeys and the live/dead
// byte split must be what the model says. The model counts bytes the way a
// store that applies its records one at a time does: a value record is live
// until the next record of its key, a tombstone or a commit marker is dead
// from the start, a compaction leaves no dead bytes (its re-asserted root
// marker counts as dead only once a reopen replays it), and it fires after
// a commit whose dead bytes exceed both the live ones and the floor.
func FuzzFileSlotIndex(f *testing.F) {
	// Ops: 0 commit (count, then address, key, value per change; value 0
	// deletes), 1 delete a whole contract, 2 reopen, 3 new contract (start,
	// count, first key), 4 commit under a one-byte floor, 5 empty commit.
	f.Add([]byte{0, 3, 0, 1, 5, 0, 2, 6, 1, 1, 7})                // one commit over two contracts
	f.Add([]byte{0, 0, 0, 1, 5, 0, 0, 0, 1, 9, 2})                // an overwrite, then a reopen
	f.Add([]byte{0, 0, 0, 1, 5, 0, 0, 0, 1, 0, 0, 0, 0, 1, 7, 2}) // delete and re-add, then a reopen
	f.Add([]byte{3, 0, 20, 0, 0, 7, 0, 3, 0, 0, 5, 7, 0, 30, 4, 0, 31, 5,
		0, 10, 0, 0, 2, 0, 0, 40, 1, 0, 20, 2, 2}) // one merge that deletes, overwrites and inserts
	f.Add([]byte{3, 0, 63, 0, 0, 7, 0, 0, 9, 0, 1, 9, 0, 2, 9, 0, 3, 9, 0, 4, 9,
		0, 5, 9, 0, 6, 9, 0, 7, 9, 1, 0, 4, 0, 1, 1, 3, 2, 0, 0, 1, 1, 0, 2}) // a contract deleted whole, compaction, reopens
	f.Add([]byte{3, 1, 40, 0, 2, 1, 3, 0, 1, 20, 0, 4, 5, 2, 1, 5})

	const (
		contracts  = 8
		keys       = 64
		tombRecLen = 1 + slotSize + crcSize
		markRecLen = 1 + hashing.HashSize + crcSize
	)
	addrOf := func(c byte) hashing.Address { return tAddr(0x10 + c%contracts) }
	keyOf := func(k byte) Word {
		var w Word
		w[0], w[31] = k%keys, k*7
		return w
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 { // every op reads every slot back: keep inputs quick
			ops = ops[:512]
		}
		dir := t.TempDir()
		st, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { st.Close() }()
		model := make(map[hashing.Address]map[Word]Word)
		var live, dead int64
		pendingMarker := false // a compaction re-asserted the root, uncounted
		var root byte

		// commit applies changes (nil value: delete) to the store and the
		// model, under the given compaction floor.
		commit := func(changes map[SlotKey]*Word, floor int64) {
			var b Batch
			for k, v := range changes {
				sc := SlotChange{Key: k}
				if v != nil {
					sc.Cur, sc.CurExists = *v, true
				}
				b.Slots = append(b.Slots, sc)
			}
			slices.SortFunc(b.Slots, func(x, y SlotChange) int {
				if c := cmpAddr(x.Key.Addr, y.Key.Addr); c != 0 {
					return c
				}
				return cmpWord(x.Key.Key, y.Key.Key)
			})
			for _, sc := range b.Slots {
				m := model[sc.Key.Addr]
				if _, existed := m[sc.Key.Key]; existed {
					live -= slotRecLen
					dead += slotRecLen
				}
				if sc.CurExists {
					if m == nil {
						m = make(map[Word]Word)
						model[sc.Key.Addr] = m
					}
					m[sc.Key.Key] = sc.Cur
					live += slotRecLen
				} else {
					delete(m, sc.Key.Key)
					dead += tombRecLen
					if len(m) == 0 {
						delete(model, sc.Key.Addr)
					}
				}
			}
			dead += markRecLen
			root++
			st.CompactMinBytes = floor
			if err := st.Commit(tRoot(root), b); err != nil {
				t.Fatal(err)
			}
			st.CompactMinBytes = defaultCompactMinBytes
			if dead > live && dead > floor {
				dead, pendingMarker = 0, true
			}
		}

		for len(ops) > 0 {
			op := ops[0] % 6
			ops = ops[1:]
			next := func() byte {
				if len(ops) == 0 {
					return 0
				}
				b := ops[0]
				ops = ops[1:]
				return b
			}
			switch op {
			case 0, 4: // a commit of upserts and deletes; 4 with a floor of one byte
				changes := make(map[SlotKey]*Word)
				for n := next()%8 + 1; n > 0; n-- {
					k := SlotKey{Addr: addrOf(next()), Key: keyOf(next())}
					if v := next(); v == 0 {
						changes[k] = nil
					} else {
						w := tWord(v)
						changes[k] = &w
					}
				}
				floor := int64(defaultCompactMinBytes)
				if op == 4 {
					floor = 1
				}
				commit(changes, floor)
			case 1: // delete one whole contract
				a := addrOf(next())
				changes := make(map[SlotKey]*Word)
				for k := range model[a] {
					changes[SlotKey{Addr: a, Key: k}] = nil
				}
				commit(changes, defaultCompactMinBytes)
			case 2: // close and reopen
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = OpenFile(dir); err != nil {
					t.Fatal(err)
				}
				if pendingMarker {
					dead += markRecLen
					pendingMarker = false
				}
			case 3: // a new contract with a run of fresh keys
				// The first absent contract from a drawn start; when all
				// exist, the keys land in the last one tried.
				var a hashing.Address
				for c, i := next(), 0; i < contracts; i++ {
					if a = addrOf(c + byte(i)); model[a] == nil {
						break
					}
				}
				changes := make(map[SlotKey]*Word)
				for n, k := next()%keys+1, next(); n > 0; n, k = n-1, k+1 {
					w := tWord(k | 1)
					changes[SlotKey{Addr: a, Key: keyOf(k)}] = &w
				}
				commit(changes, defaultCompactMinBytes)
			case 5: // an empty commit: only a marker
				commit(nil, defaultCompactMinBytes)
			}

			total := 0
			for c := byte(0); c < contracts; c++ {
				a := addrOf(c)
				m := model[a]
				total += len(m)
				for k := byte(0); k < keys; k++ {
					want, wantOK := m[keyOf(k)]
					if got, ok := st.Slot(SlotKey{Addr: a, Key: keyOf(k)}); ok != wantOK || got != want {
						t.Fatalf("Slot(%x, %d) = %x %v, want %x %v", a[0], k, got, ok, want, wantOK)
					}
				}
				var walked []Word
				st.IterateStorage(a, func(key, val Word) bool {
					if want, ok := m[key]; !ok || want != val {
						t.Fatalf("walk of %x lists %x = %x, model has %x %v", a[0], key, val, want, ok)
					}
					walked = append(walked, key)
					return true
				})
				if len(walked) != len(m) || !slices.IsSortedFunc(walked, cmpWord) {
					t.Fatalf("walk of %x lists %d keys (sorted %v), model has %d", a[0], len(walked), slices.IsSortedFunc(walked, cmpWord), len(m))
				}
				for i := 1; i < len(walked); i++ {
					if walked[i-1] == walked[i] {
						t.Fatalf("walk of %x lists %x twice", a[0], walked[i])
					}
				}
				if n := st.SlotCount(a); n != len(m) {
					t.Fatalf("SlotCount(%x) = %d, model has %d", a[0], n, len(m))
				}
			}
			if n := st.LiveKeys(); n != total {
				t.Fatalf("LiveKeys = %d, model has %d", n, total)
			}
			if l, d := st.SegmentBytes(); l != live || d != dead {
				t.Fatalf("SegmentBytes = %d live, %d dead; model %d, %d", l, d, live, dead)
			}
		}
	})
}
