package state

import (
	"math/rand"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/trie"
	"scmove/internal/u256"
)

// modelAccount mirrors the observable state of one account.
type modelAccount struct {
	balance  uint64
	nonce    uint64
	code     string
	location hashing.ChainID
	moveN    uint64
	storage  map[evm.Word]evm.Word
}

type model struct {
	accounts map[hashing.Address]*modelAccount
	logs     int
}

func newModel() *model {
	return &model{accounts: make(map[hashing.Address]*modelAccount)}
}

func (m *model) clone() *model {
	out := newModel()
	out.logs = m.logs
	for a, acct := range m.accounts {
		cp := *acct
		cp.storage = make(map[evm.Word]evm.Word, len(acct.storage))
		for k, v := range acct.storage {
			cp.storage[k] = v
		}
		out.accounts[a] = &cp
	}
	return out
}

func (m *model) get(a hashing.Address) *modelAccount {
	acct, ok := m.accounts[a]
	if !ok {
		acct = &modelAccount{storage: make(map[evm.Word]evm.Word)}
		m.accounts[a] = acct
	}
	return acct
}

// TestStatePropertyRandomOpsWithSnapshots drives the journaled DB and a
// plain in-memory model through the same random operation stream, including
// nested snapshot/revert pairs, and checks observational equivalence after
// every revert and at the end — for both tree kinds.
func TestStatePropertyRandomOpsWithSnapshots(t *testing.T) {
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(12345))
			db, err := NewDB(localChain, kind)
			if err != nil {
				t.Fatal(err)
			}
			m := newModel()

			type frame struct {
				snap  int
				model *model
			}
			var stack []frame

			addrOf := func() hashing.Address { return addr(byte(rng.Intn(12))) }
			wordOf := func() evm.Word { return word(byte(rng.Intn(8))) }

			check := func(step int) {
				t.Helper()
				for i := 0; i < 12; i++ {
					a := addr(byte(i))
					want, exists := m.accounts[a]
					if !exists {
						if db.Exists(a) {
							t.Fatalf("step %d: %s exists in db only", step, a)
						}
						continue
					}
					if got := db.GetBalance(a).Uint64(); got != want.balance {
						t.Fatalf("step %d: %s balance %d != %d", step, a, got, want.balance)
					}
					if got := db.GetNonce(a); got != want.nonce {
						t.Fatalf("step %d: %s nonce %d != %d", step, a, got, want.nonce)
					}
					if got := string(db.GetCode(a)); got != want.code {
						t.Fatalf("step %d: %s code %q != %q", step, a, got, want.code)
					}
					wantLoc := want.location
					if wantLoc == 0 {
						wantLoc = localChain
					}
					if got := db.GetLocation(a); got != wantLoc {
						t.Fatalf("step %d: %s location %s != %s", step, a, got, wantLoc)
					}
					if got := db.GetMoveNonce(a); got != want.moveN {
						t.Fatalf("step %d: %s move nonce %d != %d", step, a, got, want.moveN)
					}
					for k := byte(0); k < 8; k++ {
						got := db.GetStorage(a, word(k))
						if want.storage[word(k)] != got {
							t.Fatalf("step %d: %s storage[%d] %x != %x",
								step, a, k, got, want.storage[word(k)])
						}
					}
				}
			}

			for step := 0; step < 4000; step++ {
				switch rng.Intn(13) {
				case 0: // snapshot
					if len(stack) < 4 {
						stack = append(stack, frame{snap: db.Snapshot(), model: m.clone()})
					}
				case 1: // revert
					if len(stack) > 0 {
						f := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						db.RevertToSnapshot(f.snap)
						m = f.model
						check(step)
					}
				case 2:
					a := addrOf()
					amt := uint64(rng.Intn(1000))
					db.AddBalance(a, u256.FromUint64(amt))
					m.get(a).balance += amt
				case 3:
					a := addrOf()
					if bal := m.get(a).balance; bal > 0 {
						amt := uint64(rng.Intn(int(bal))) + 1
						if amt > bal {
							amt = bal
						}
						db.SubBalance(a, u256.FromUint64(amt))
						m.get(a).balance -= amt
					}
				case 4:
					a := addrOf()
					n := uint64(rng.Intn(100))
					db.SetNonce(a, n)
					m.get(a).nonce = n
				case 5, 6:
					a, k, v := addrOf(), wordOf(), wordOf()
					db.SetStorage(a, k, v)
					if v == (evm.Word{}) {
						delete(m.get(a).storage, k)
					} else {
						m.get(a).storage[k] = v
					}
				case 7:
					a := addrOf()
					code := []byte{byte(rng.Intn(200) + 1)}
					db.CreateContract(a, code)
					acct := m.get(a)
					acct.code = string(code)
					acct.location = localChain
				case 8:
					a := addrOf()
					loc := hashing.ChainID(rng.Intn(3) + 1)
					db.SetLocation(a, loc)
					m.get(a).location = loc
				case 9:
					a := addrOf()
					n := uint64(rng.Intn(10))
					db.SetMoveNonce(a, n)
					acct := m.get(a)
					acct.moveN = n
				case 10:
					db.AddLog(&evm.Log{Address: addrOf()})
					m.logs++
				case 11:
					a := addrOf()
					if _, exists := m.accounts[a]; exists {
						db.DeleteAccount(a)
						delete(m.accounts, a)
					}
				case 12: // Move2 import: the record's fields and the whole storage
					a := addrOf()
					in := Account{Nonce: uint64(rng.Intn(50)), Balance: u256.FromUint64(uint64(rng.Intn(10_000))), MoveNonce: uint64(rng.Intn(5))}
					code := []byte{byte(rng.Intn(200) + 1)}
					entries := []StorageEntry{{Key: wordOf(), Value: word(byte(rng.Intn(7) + 1))}}
					db.ImportAccount(a, in, code, db.buildStorageTree(entries))
					acct := m.get(a)
					acct.nonce, acct.balance, acct.moveN = in.Nonce, in.Balance.Uint64(), in.MoveNonce
					acct.code, acct.location = string(code), localChain
					acct.storage = map[evm.Word]evm.Word{entries[0].Key: entries[0].Value}
				}
			}
			check(4000)
			if got := len(db.TakeLogs()); got != m.logs {
				t.Fatalf("logs %d != %d", got, m.logs)
			}
			// Committing after the run must produce the same root as a fresh
			// DB loaded with the surviving contents (canonical commitment).
			db.Commit()
			fresh, err := NewDB(localChain, kind)
			if err != nil {
				t.Fatal(err)
			}
			for a, acct := range m.accounts {
				if acct.balance > 0 {
					fresh.AddBalance(a, u256.FromUint64(acct.balance))
				}
				if acct.nonce > 0 {
					fresh.SetNonce(a, acct.nonce)
				}
				if acct.code != "" {
					fresh.CreateContract(a, []byte(acct.code))
				}
				if acct.location != 0 {
					fresh.SetLocation(a, acct.location)
				}
				if acct.moveN > 0 {
					fresh.SetMoveNonce(a, acct.moveN)
				}
				for k, v := range acct.storage {
					fresh.SetStorage(a, k, v)
				}
			}
			if a, b := db.Commit(), fresh.Commit(); a != b {
				t.Fatalf("history-dependent commit root: %s vs %s", a, b)
			}
		})
	}
}
