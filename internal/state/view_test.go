package state

import (
	"math/rand"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/trie"
	"scmove/internal/u256"
)

// seedParent loads a handful of committed accounts into db: an EOA with
// balance and nonce, a contract with code and storage, a moved account, and
// one with a move nonce.
func seedParent(t *testing.T, db *DB) hashing.Hash {
	t.Helper()
	db.AddBalance(addr(1), u256.FromUint64(1_000_000))
	db.SetNonce(addr(1), 7)
	db.CreateContract(addr(2), []byte{0x60, 0x00})
	db.SetStorage(addr(2), word(1), word(42))
	db.SetStorage(addr(2), word(2), word(43))
	db.SetLocation(addr(3), hashing.ChainID(9))
	db.AddBalance(addr(3), u256.FromUint64(5))
	db.SetMoveNonce(addr(4), 3)
	db.DiscardJournal()
	return db.Commit()
}

// TestViewRevertNeverLeaksToParent is the isolation property: no sequence of
// writes and reverts on a view may touch the parent DB, and a fully
// reverted view must apply nothing.
func TestViewRevertNeverLeaksToParent(t *testing.T) {
	db := newTestDB(t)
	root0 := seedParent(t, db)

	v := NewView(db)
	snap := v.Snapshot()
	v.AddBalance(addr(1), u256.FromUint64(99))
	v.SubBalance(addr(1), u256.FromUint64(1))
	v.SetNonce(addr(1), 100)
	v.CreateContract(addr(5), []byte{1, 2, 3})
	v.SetStorage(addr(2), word(1), word(77))
	v.DeleteAccount(addr(2))
	v.ImportAccount(addr(6), Account{Nonce: 1, Balance: u256.FromUint64(10)},
		[]byte{9}, []StorageEntry{{Key: word(1), Value: word(2)}})
	v.AddLog(&evm.Log{Address: addr(1)})
	v.RevertToSnapshot(snap)

	if got := db.Commit(); got != root0 {
		t.Fatalf("parent root changed under a reverted view: %s != %s", got, root0)
	}
	if db.Snapshot() != 0 {
		t.Fatal("view ops grew the parent journal")
	}
	// A fully reverted view must flush nothing.
	v.ApplyTo(db)
	if got := db.Commit(); got != root0 {
		t.Fatalf("reverted view applied writes: %s != %s", got, root0)
	}
	if logs := v.TakeLogs(); len(logs) != 0 {
		t.Fatalf("reverted view kept %d logs", len(logs))
	}
}

// TestViewReadSetSurvivesRevert: reads recorded inside a reverted subcall
// must still be validated — the reverted execution path observed them and
// they influenced control flow.
func TestViewReadSetSurvivesRevert(t *testing.T) {
	db := newTestDB(t)
	seedParent(t, db)

	observe := func(v *View) {
		v.Exists(addr(8)) // absent account
		_ = v.GetBalance(addr(1))
		_ = v.GetNonce(addr(1))
		_ = v.GetCodeHash(addr(2))
		_ = v.GetStorage(addr(2), word(1))
		_ = v.GetLocation(addr(3))
		_ = v.GetMoveNonce(addr(4))
	}

	newObserved := func() *View {
		v := NewView(db)
		snap := v.Snapshot()
		observe(v)
		v.SetStorage(addr(2), word(1), word(99)) // some reverted write too
		v.RevertToSnapshot(snap)
		return v
	}

	if v := newObserved(); !v.Validate(NewView(db)) {
		t.Fatal("validation must pass against an unchanged parent")
	}

	// Each single observed field changing must fail validation, even though
	// every observation happened inside a reverted snapshot.
	conflicts := []func(cv *View){
		func(cv *View) { cv.AddBalance(addr(8), u256.FromUint64(1)) }, // Exists flips
		func(cv *View) { cv.AddBalance(addr(1), u256.FromUint64(1)) },
		func(cv *View) { cv.SetNonce(addr(1), 8) },
		func(cv *View) { cv.CreateContract(addr(2), []byte{0xFE}) },
		func(cv *View) { cv.SetStorage(addr(2), word(1), word(7)) },
		func(cv *View) { cv.SetLocation(addr(3), hashing.ChainID(2)) },
		func(cv *View) { cv.SetMoveNonce(addr(4), 4) },
	}
	for i, mutate := range conflicts {
		cv := NewView(db)
		mutate(cv)
		if newObserved().Validate(cv) {
			t.Fatalf("conflict %d not detected after revert", i)
		}
	}
}

// TestViewImportAccountMatchesDB: a Move2 import through a view and ApplyTo
// must commit to the same root as the same import straight into a DB.
func TestViewImportAccountMatchesDB(t *testing.T) {
	acct := Account{Nonce: 5, Balance: u256.FromUint64(777), MoveNonce: 2}
	code := []byte{0x60, 0x01}
	entries := []StorageEntry{{Key: word(1), Value: word(11)}, {Key: word(3), Value: word(33)}}

	direct := newTestDB(t)
	seedParent(t, direct)
	direct.ImportAccount(addr(9), acct, code, entries)
	wantRoot := direct.Commit()

	viewed := newTestDB(t)
	seedParent(t, viewed)
	v := NewView(viewed)
	v.ImportAccount(addr(9), acct, code, entries)
	v.ApplyTo(viewed)
	if got := viewed.Commit(); got != wantRoot {
		t.Fatalf("import via view diverges: %s != %s", got, wantRoot)
	}
}

// TestViewPropertyDifferentialRandomOps drives a DB directly and a View (over
// an identically seeded parent) through the same random operation stream —
// including nested snapshot/revert pairs, SELFDESTRUCT wipes, re-creation
// after wipes, and Move2 imports (which replace the account's storage) —
// comparing every observable getter after each revert, and the committed
// state roots after the view flushes.
func TestViewPropertyDifferentialRandomOps(t *testing.T) {
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			serial, err := NewDB(localChain, kind)
			if err != nil {
				t.Fatal(err)
			}
			parent, err := NewDB(localChain, kind)
			if err != nil {
				t.Fatal(err)
			}
			seedParent(t, serial)
			seedParent(t, parent)
			v := NewView(parent)

			rng := rand.New(rand.NewSource(424242))
			addrOf := func() hashing.Address { return addr(byte(rng.Intn(12))) }
			wordOf := func() evm.Word { return word(byte(rng.Intn(8))) }

			check := func(step int) {
				t.Helper()
				for i := 0; i < 12; i++ {
					a := addr(byte(i))
					if got, want := v.Exists(a), serial.Exists(a); got != want {
						t.Fatalf("step %d: %s exists %v != %v", step, a, got, want)
					}
					if got, want := v.GetBalance(a), serial.GetBalance(a); !got.Eq(want) {
						t.Fatalf("step %d: %s balance %s != %s", step, a, got, want)
					}
					if got, want := v.GetNonce(a), serial.GetNonce(a); got != want {
						t.Fatalf("step %d: %s nonce %d != %d", step, a, got, want)
					}
					if got, want := string(v.GetCode(a)), string(serial.GetCode(a)); got != want {
						t.Fatalf("step %d: %s code %x != %x", step, a, got, want)
					}
					if got, want := v.GetCodeHash(a), serial.GetCodeHash(a); got != want {
						t.Fatalf("step %d: %s code hash %s != %s", step, a, got, want)
					}
					if got, want := v.GetLocation(a), serial.GetLocation(a); got != want {
						t.Fatalf("step %d: %s location %s != %s", step, a, got, want)
					}
					if got, want := v.GetMoveNonce(a), serial.GetMoveNonce(a); got != want {
						t.Fatalf("step %d: %s move nonce %d != %d", step, a, got, want)
					}
					for k := byte(0); k < 8; k++ {
						if got, want := v.GetStorage(a, word(k)), serial.GetStorage(a, word(k)); got != want {
							t.Fatalf("step %d: %s storage[%d] %x != %x", step, a, k, got, want)
						}
					}
				}
			}

			type frame struct{ vs, ds int }
			var stack []frame
			for step := 0; step < 6000; step++ {
				switch rng.Intn(13) {
				case 0:
					if len(stack) < 4 {
						stack = append(stack, frame{vs: v.Snapshot(), ds: serial.Snapshot()})
					}
				case 1:
					if len(stack) > 0 {
						f := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						v.RevertToSnapshot(f.vs)
						serial.RevertToSnapshot(f.ds)
						check(step)
					}
				case 2:
					a, amt := addrOf(), u256.FromUint64(uint64(rng.Intn(1000)))
					v.AddBalance(a, amt)
					serial.AddBalance(a, amt)
				case 3:
					a := addrOf()
					if bal := serial.GetBalance(a); !bal.IsZero() {
						amt := u256.FromUint64(uint64(rng.Intn(int(bal.Uint64()))) + 1)
						v.SubBalance(a, amt)
						serial.SubBalance(a, amt)
					}
				case 4:
					a, n := addrOf(), uint64(rng.Intn(100))
					v.SetNonce(a, n)
					serial.SetNonce(a, n)
				case 5, 6:
					a, k, val := addrOf(), wordOf(), wordOf()
					v.SetStorage(a, k, val)
					serial.SetStorage(a, k, val)
				case 7:
					a, code := addrOf(), []byte{byte(rng.Intn(200) + 1)}
					v.CreateContract(a, code)
					serial.CreateContract(a, code)
				case 8:
					a, loc := addrOf(), hashing.ChainID(rng.Intn(3)+1)
					v.SetLocation(a, loc)
					serial.SetLocation(a, loc)
				case 9:
					a, n := addrOf(), uint64(rng.Intn(10))
					v.SetMoveNonce(a, n)
					serial.SetMoveNonce(a, n)
				case 10:
					l := &evm.Log{Address: addrOf()}
					v.AddLog(l)
					serial.AddLog(l)
				case 11:
					a := addrOf()
					v.DeleteAccount(a)
					serial.DeleteAccount(a)
				case 12:
					a := addrOf()
					acct := Account{
						Nonce:     uint64(rng.Intn(50)),
						Balance:   u256.FromUint64(uint64(rng.Intn(10_000))),
						MoveNonce: uint64(rng.Intn(5)),
					}
					code := []byte{byte(rng.Intn(200) + 1)}
					entries := []StorageEntry{{Key: wordOf(), Value: word(byte(rng.Intn(7) + 1))}}
					v.ImportAccount(a, acct, code, entries)
					serial.ImportAccount(a, acct, code, entries)
					// The import replaces the storage: whatever the account
					// held before (seeded, written or imported) is gone.
					for k := byte(0); k < 8; k++ {
						want := evm.Word{}
						if word(k) == entries[0].Key {
							want = entries[0].Value
						}
						if got, sgot := v.GetStorage(a, word(k)), serial.GetStorage(a, word(k)); got != want || sgot != want {
							t.Fatalf("step %d: %s storage[%d] after import: view %x, serial %x, want %x", step, a, k, got, sgot, want)
						}
					}
				}
			}
			check(6000)
			if got, want := len(v.TakeLogs()), len(serial.TakeLogs()); got != want {
				t.Fatalf("view logs %d != %d", got, want)
			}
			v.ApplyTo(parent)
			if got, want := parent.Commit(), serial.Commit(); got != want {
				t.Fatalf("flushed view root diverges from serial: %s != %s", got, want)
			}
		})
	}
}

// TestViewWipeThenRecreate pins the SELFDESTRUCT-and-recreate corner: the
// wipe must bury earlier buffered storage, re-creation must start from a
// clean record, and the flushed result must match serial execution.
func TestViewWipeThenRecreate(t *testing.T) {
	serial := newTestDB(t)
	parent := newTestDB(t)
	seedParent(t, serial)
	seedParent(t, parent)

	run := func(st evm.StateAccess) {
		st.SetStorage(addr(2), word(5), word(55)) // buffered pre-wipe write
		st.DeleteAccount(addr(2))
		if got := st.GetStorage(addr(2), word(5)); got != (evm.Word{}) {
			t.Fatalf("wipe must bury the pre-wipe write, got %x", got)
		}
		if got := st.GetStorage(addr(2), word(1)); got != (evm.Word{}) {
			t.Fatalf("wipe must shield parent storage, got %x", got)
		}
		if st.Exists(addr(2)) {
			t.Fatal("wiped account must not exist")
		}
		st.CreateContract(addr(2), []byte{0xAA})
		st.SetStorage(addr(2), word(6), word(66))
	}
	v := NewView(parent)
	run(v)
	run(serial)

	v.ApplyTo(parent)
	if got, want := parent.Commit(), serial.Commit(); got != want {
		t.Fatalf("wipe/recreate diverges: %s != %s", got, want)
	}
}

// TestViewAccessesGranularity pins the read/write set Accesses exports for
// the conflict scheduler: reads and writes land in the right conflict
// domain (metadata, balance, slot), balance deltas are distinguished from
// balance replacement, untouched accounts are silent, and slot writes
// buried by a later account wipe are not reported (the wipe itself shows
// up as a metadata write).
func TestViewAccessesGranularity(t *testing.T) {
	db := newTestDB(t)
	seedParent(t, db)

	v := NewView(db)
	_ = v.GetNonce(addr(1))                   // metadata read
	v.AddBalance(addr(1), u256.FromUint64(5)) // commutative delta, no read
	v.SetNonce(addr(1), 8)                    // metadata write
	_ = v.GetBalance(addr(3))                 // balance read
	v.SetStorage(addr(2), word(1), word(9))   // blind slot write
	_ = v.GetStorage(addr(2), word(2))        // slot read

	// Wipe burial: the first write is dead under the DeleteAccount epoch,
	// the second survives because it happens after the wipe.
	v.CreateContract(addr(5), []byte{1})
	v.SetStorage(addr(5), word(1), word(1))
	v.DeleteAccount(addr(5))
	v.SetStorage(addr(5), word(2), word(2))

	type acctFlags struct{ metaRead, metaWrite, balRead, balWrite, balDelta bool }
	type slotFlags struct{ read, written bool }
	accts := map[hashing.Address]acctFlags{}
	slots := map[[2]interface{}]slotFlags{}
	v.Accesses(
		func(a hashing.Address, mr, mw, br, bw, bd bool) {
			accts[a] = acctFlags{mr, mw, br, bw, bd}
		},
		func(a hashing.Address, k evm.Word, r, w bool) {
			slots[[2]interface{}{a, k}] = slotFlags{r, w}
		},
	)

	if got := accts[addr(1)]; !got.metaRead || !got.metaWrite || !got.balDelta || got.balWrite || got.balRead {
		t.Fatalf("addr1 flags %+v", got)
	}
	if got := accts[addr(3)]; !got.balRead || got.metaWrite || got.balWrite || got.balDelta {
		t.Fatalf("addr3 flags %+v", got)
	}
	if got := accts[addr(5)]; !got.metaWrite {
		t.Fatalf("wiped addr5 must report a metadata write: %+v", got)
	}
	if _, ok := accts[addr(4)]; ok {
		t.Fatal("untouched account reported")
	}
	if got := slots[[2]interface{}{addr(2), word(1)}]; got.read || !got.written {
		t.Fatalf("blind write flags %+v", got)
	}
	if got := slots[[2]interface{}{addr(2), word(2)}]; !got.read || got.written {
		t.Fatalf("read-only slot flags %+v", got)
	}
	if got, ok := slots[[2]interface{}{addr(5), word(1)}]; ok && got.written {
		t.Fatalf("wipe-buried slot write reported: %+v", got)
	}
	if got := slots[[2]interface{}{addr(5), word(2)}]; !got.written {
		t.Fatalf("post-wipe slot write lost: %+v", got)
	}
}
