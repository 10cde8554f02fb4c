package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

const (
	chainA = hashing.ChainID(1) // MPT, Ethereum-like, p=6
	chainB = hashing.ChainID(2) // IAVL, Burrow-like, lagging root, p=2
)

func paramsA() ChainParams {
	return ChainParams{ID: chainA, TreeKind: trie.KindMPT, ConfirmationDepth: 6}
}

func paramsB() ChainParams {
	return ChainParams{ID: chainB, TreeKind: trie.KindIAVL, ConfirmationDepth: 2, LaggingStateRoot: true}
}

func addr(b byte) hashing.Address {
	var a hashing.Address
	a[0] = b
	return a
}

func word(b byte) evm.Word {
	var w evm.Word
	w[31] = b
	return w
}

// lockContract installs a contract on db, locks it towards target, commits,
// and returns the committed height's root published as a header.
func lockContract(t *testing.T, db *state.DB, contract hashing.Address, target hashing.ChainID) {
	t.Helper()
	db.CreateContract(contract, []byte("movable code"))
	db.SetStorage(contract, word(1), word(10))
	db.SetStorage(contract, word(2), word(20))
	db.AddBalance(contract, u256.FromUint64(77))
	db.SetNonce(contract, 5)
	db.SetLocation(contract, target)
	db.SetMoveNonce(contract, db.GetMoveNonce(contract)+1)
	db.Commit()
}

// publish feeds hs with a header chain for the given chain id so that the
// root of height is trusted: for lagging chains the root lands in height+1,
// and the head is advanced p blocks past the root-bearing header.
func publish(t testing.TB, hs *HeaderStore, params ChainParams, height uint64, root hashing.Hash) {
	t.Helper()
	rootHeight := height
	if params.LaggingStateRoot {
		rootHeight = height + 1
	}
	head := rootHeight + params.ConfirmationDepth
	var headers []*types.Header
	for h := rootHeight; h <= head; h++ {
		hdr := &types.Header{ChainID: params.ID, Height: h}
		if h == rootHeight {
			hdr.StateRoot = root
		}
		headers = append(headers, hdr)
	}
	if err := hs.Update(params.ID, headers, head); err != nil {
		t.Fatal(err)
	}
}

func newDBs(t *testing.T) (src, dst *state.DB) {
	t.Helper()
	var err error
	src, err = state.NewDB(chainA, trie.KindMPT)
	if err != nil {
		t.Fatal(err)
	}
	dst, err = state.NewDB(chainB, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func TestMoveRoundTripMPTtoIAVL(t *testing.T) {
	src, dst := newDBs(t)
	contract := addr(0xc0)
	lockContract(t, src, contract, chainB)

	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsA(), 1, src.Root())

	acct, err := VerifyMove2(chainB, dst, hs, payload)
	if err != nil {
		t.Fatal(err)
	}
	ApplyMove2(dst, payload, acct)

	// The contract is recreated identically on the target chain.
	got, ok := dst.GetAccount(contract)
	if !ok {
		t.Fatal("contract must exist on target")
	}
	if got.Nonce != 5 || !got.Balance.Eq(u256.FromUint64(77)) || got.MoveNonce != 1 {
		t.Fatalf("recreated account %+v", got)
	}
	if got.Location != chainB {
		t.Fatal("recreated contract must be local to the target")
	}
	if string(dst.GetCode(contract)) != "movable code" {
		t.Fatal("code must be recreated")
	}
	if dst.GetStorage(contract, word(1)) != word(10) || dst.GetStorage(contract, word(2)) != word(20) {
		t.Fatal("storage must be recreated")
	}
}

func TestMoveRoundTripIAVLtoMPTLaggingRoot(t *testing.T) {
	// Burrow-like source: the root of height h is published in header h+1.
	src, err := state.NewDB(chainB, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := state.NewDB(chainA, trie.KindMPT)
	if err != nil {
		t.Fatal(err)
	}
	contract := addr(0xc1)
	lockContract(t, src, contract, chainA)

	payload, err := BuildMoveProof(src, contract, 4)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsB(), 4, src.Root())

	acct, err := VerifyMove2(chainA, dst, hs, payload)
	if err != nil {
		t.Fatal(err)
	}
	ApplyMove2(dst, payload, acct)
	if loc := dst.GetLocation(contract); loc != chainA {
		t.Fatalf("location = %s", loc)
	}
}

func TestBuildProofRequiresLock(t *testing.T) {
	src, _ := newDBs(t)
	contract := addr(0xc2)
	src.CreateContract(contract, []byte("code"))
	src.Commit()
	if _, err := BuildMoveProof(src, contract, 1); !errors.Is(err, ErrNotLocked) {
		t.Fatalf("want ErrNotLocked, got %v", err)
	}
}

func TestVerifyRejectsUnconfirmedHeight(t *testing.T) {
	src, dst := newDBs(t)
	contract := addr(0xc3)
	lockContract(t, src, contract, chainB)
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	// Publish the header but with head only 3 past it (p=6 required).
	hdr := &types.Header{ChainID: chainA, Height: 1, StateRoot: src.Root()}
	if err := hs.Update(chainA, []*types.Header{hdr}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyMove2(chainB, dst, hs, payload); !errors.Is(err, ErrNotConfirmed) {
		t.Fatalf("want ErrNotConfirmed, got %v", err)
	}
}

func TestVerifyRejectsWrongTarget(t *testing.T) {
	src, _ := newDBs(t)
	contract := addr(0xc4)
	lockContract(t, src, contract, hashing.ChainID(9)) // destined elsewhere
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsA(), 1, src.Root())
	dst, err := state.NewDB(chainB, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyMove2(chainB, dst, hs, payload); !errors.Is(err, ErrWrongTarget) {
		t.Fatalf("want ErrWrongTarget, got %v", err)
	}
}

func TestVerifyRejectsTamperedStorage(t *testing.T) {
	src, dst := newDBs(t)
	contract := addr(0xc5)
	lockContract(t, src, contract, chainB)
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsA(), 1, src.Root())

	build := func() *types.Move2Payload {
		p, err := BuildMoveProof(src, contract, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Omitting an entry breaks completeness.
	p := build()
	p.Storage = p.Storage[:1]
	if _, err := VerifyMove2(chainB, dst, hs, p); !errors.Is(err, ErrIncompleteSet) {
		t.Fatalf("omission: want ErrIncompleteSet, got %v", err)
	}
	// Altering a value breaks completeness.
	p = build()
	p.Storage[0].Value = word(0xff)
	if _, err := VerifyMove2(chainB, dst, hs, p); !errors.Is(err, ErrIncompleteSet) {
		t.Fatalf("alteration: want ErrIncompleteSet, got %v", err)
	}
	// Injecting an entry breaks completeness.
	p = build()
	p.Storage = append(p.Storage, types.StorageEntry{Key: word(0xEE), Value: word(1)})
	if _, err := VerifyMove2(chainB, dst, hs, p); !errors.Is(err, ErrIncompleteSet) {
		t.Fatalf("injection: want ErrIncompleteSet, got %v", err)
	}
}

func TestVerifyRejectsTamperedCode(t *testing.T) {
	src, dst := newDBs(t)
	contract := addr(0xc6)
	lockContract(t, src, contract, chainB)
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload.Code = []byte("evil code")
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsA(), 1, src.Root())
	if _, err := VerifyMove2(chainB, dst, hs, payload); !errors.Is(err, ErrIncompleteCode) {
		t.Fatalf("want ErrIncompleteCode, got %v", err)
	}
}

// TestReplayProtectionFig2 reproduces the scenario of paper Fig. 2: a
// contract moves B1 → B2 and back B2 → B1; a replay of the original Move2
// on B2 must abort on the stale move nonce.
func TestReplayProtectionFig2(t *testing.T) {
	b1, b2 := newDBs(t)
	contract := addr(0xc7)
	hs := NewHeaderStore(paramsA(), paramsB())

	// Move B1 -> B2 (move nonce becomes 1).
	lockContract(t, b1, contract, chainB)
	originalPayload, err := BuildMoveProof(b1, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, hs, paramsA(), 1, b1.Root())
	acct, err := VerifyMove2(chainB, b2, hs, originalPayload)
	if err != nil {
		t.Fatal(err)
	}
	ApplyMove2(b2, originalPayload, acct)

	// Immediate replay on B2: nonce 1 already seen.
	if _, err := VerifyMove2(chainB, b2, hs, originalPayload); !errors.Is(err, ErrReplay) {
		t.Fatalf("immediate replay: want ErrReplay, got %v", err)
	}

	// Move B2 -> B1 (Move1 on B2 bumps the nonce to 2).
	b2.SetLocation(contract, chainA)
	b2.SetMoveNonce(contract, b2.GetMoveNonce(contract)+1)
	b2.Commit()
	backPayload, err := BuildMoveProof(b2, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, hs, paramsB(), 1, b2.Root())
	acctBack, err := VerifyMove2(chainA, b1, hs, backPayload)
	if err != nil {
		t.Fatal(err)
	}
	ApplyMove2(b1, backPayload, acctBack)
	if b1.GetLocation(contract) != chainA {
		t.Fatal("contract must be back on B1")
	}

	// The attack: replay the original Tmove2 on B2. The tombstone's move
	// nonce (2) exceeds the proof's (1) — abort (Fig. 2's "1 > 3" check).
	if _, err := VerifyMove2(chainB, b2, hs, originalPayload); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay after round trip: want ErrReplay, got %v", err)
	}
}

func TestHeaderStoreUnknownChain(t *testing.T) {
	hs := NewHeaderStore(paramsA())
	if err := hs.Update(hashing.ChainID(42), nil, 0); !errors.Is(err, ErrUnknownChain) {
		t.Fatalf("want ErrUnknownChain, got %v", err)
	}
	if _, err := hs.TrustedStateRoot(hashing.ChainID(42), 0); !errors.Is(err, ErrUnknownChain) {
		t.Fatalf("want ErrUnknownChain, got %v", err)
	}
	if _, err := hs.TrustedStateRoot(chainA, 99); !errors.Is(err, ErrNoHeader) {
		t.Fatalf("want ErrNoHeader, got %v", err)
	}
}

func TestHeaderStoreReorgOverwrite(t *testing.T) {
	hs := NewHeaderStore(paramsA())
	h1 := &types.Header{ChainID: chainA, Height: 5, StateRoot: hashing.Sum([]byte("fork-a"))}
	h2 := &types.Header{ChainID: chainA, Height: 5, StateRoot: hashing.Sum([]byte("fork-b"))}
	if err := hs.Update(chainA, []*types.Header{h1}, 5); err != nil {
		t.Fatal(err)
	}
	if err := hs.Update(chainA, []*types.Header{h2}, 11); err != nil {
		t.Fatal(err)
	}
	root, err := hs.TrustedStateRoot(chainA, 5)
	if err != nil {
		t.Fatal(err)
	}
	if root != h2.StateRoot {
		t.Fatal("reorged header must win")
	}
}

// TestHeaderStoreDepthOfHeaderAboveHead: Update stores headers above the
// head it is given, so a header can sit higher than the chain's known head.
// Its depth is then 0, not head-height wrapped around 2^64.
func TestHeaderStoreDepthOfHeaderAboveHead(t *testing.T) {
	hs := NewHeaderStore(paramsA(), paramsB())
	if err := hs.Update(chainA, []*types.Header{{ChainID: chainA, Height: 8}}, 5); err != nil {
		t.Fatal(err)
	}
	if err := hs.Update(chainB, []*types.Header{{ChainID: chainB, Height: 4}}, 2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		chain  hashing.ChainID
		height uint64
		want   string
	}{
		{chainA, 8, "height 8 is 0 deep, need 6"},
		{chainB, 3, "height 4 is 0 deep, need 2"}, // lagging: root of 3 is in header 4
	} {
		_, err := hs.TrustedStateRoot(c.chain, c.height)
		if !errors.Is(err, ErrNotConfirmed) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s height %d: err = %v, want ErrNotConfirmed saying %q", c.chain, c.height, err, c.want)
		}
	}
}

// TestConfirmedAtAgreesWithTrustedStateRoot holds ConfirmedAt, which decides
// without building an error, to TrustedStateRoot's verdict on every height
// around the stored ones as the head advances, on a plain and a lagging
// chain.
func TestConfirmedAtAgreesWithTrustedStateRoot(t *testing.T) {
	hs := NewHeaderStore(paramsA(), paramsB())
	for _, chain := range []hashing.ChainID{chainA, chainB} {
		var headers []*types.Header
		for h := uint64(3); h <= 9; h++ {
			headers = append(headers, &types.Header{ChainID: chain, Height: h})
		}
		for head := uint64(0); head <= 20; head++ {
			if err := hs.Update(chain, headers, head); err != nil {
				t.Fatal(err)
			}
			for h := uint64(0); h <= 12; h++ {
				_, err := hs.TrustedStateRoot(chain, h)
				if got := hs.ConfirmedAt(chain, h); got != (err == nil) {
					t.Fatalf("%s head %d height %d: ConfirmedAt = %v, TrustedStateRoot err = %v", chain, head, h, got, err)
				}
			}
		}
	}
	if hs.ConfirmedAt(hashing.ChainID(42), 0) {
		t.Fatal("an unknown chain confirms nothing")
	}
}

func TestHeaderStoreRejectsMislabeledHeaders(t *testing.T) {
	hs := NewHeaderStore(paramsA(), paramsB())
	alien := &types.Header{ChainID: chainB, Height: 1}
	if err := hs.Update(chainA, []*types.Header{alien}, 1); err == nil {
		t.Fatal("header from another chain must be rejected")
	}
}

func TestMoveToInputRoundTrip(t *testing.T) {
	input := MoveToInput(hashing.ChainID(777))
	id, ok := ParseMoveToInput(input)
	if !ok || id != hashing.ChainID(777) {
		t.Fatalf("parse = %d, %v", id, ok)
	}
	if _, ok := ParseMoveToInput([]byte("garbage")); ok {
		t.Fatal("garbage must not parse")
	}
	if !IsMoveFinishInput(MoveFinishInput) || IsMoveFinishInput(input) {
		t.Fatal("move finish recognition broken")
	}
}

// prepared is PrepareMove2 for a full payload, over no base.
func prepared(hs *HeaderStore, target trie.Kind, p *types.Move2Payload) *Move2Storage {
	s, _ := PrepareMove2(hs, target, p, nil, nil)
	return s
}

// TestPreparedMove2MatchesVerifyAndApply holds PrepareMove2 to the functions
// it replaces on a chain: verifying with its result must fail exactly as
// VerifyMove2 does, error text included, and installing its tree must leave
// the state root ApplyMove2 leaves — for MPT → IAVL, IAVL → MPT and
// IAVL → IAVL, at 3, 127 and 178 entries.
func TestPreparedMove2MatchesVerifyAndApply(t *testing.T) {
	kinds := map[hashing.ChainID]trie.Kind{chainA: trie.KindMPT, chainB: trie.KindIAVL, 3: trie.KindIAVL}
	params := func(id hashing.ChainID) ChainParams {
		return ChainParams{ID: id, TreeKind: kinds[id], ConfirmationDepth: 1}
	}
	for _, pair := range [][2]hashing.ChainID{{chainA, chainB}, {chainB, chainA}, {3, chainB}} {
		for _, slots := range []int{3, 127, 178} {
			src, err := state.NewDB(pair[0], kinds[pair[0]])
			if err != nil {
				t.Fatal(err)
			}
			contract := addr(0xd0)
			src.CreateContract(contract, []byte("moved"))
			for i := 0; i < slots; i++ {
				src.SetStorage(contract, evm.Word{0: 1, 30: byte(i >> 8), 31: byte(i)}, word(byte(i%250+1)))
			}
			src.SetLocation(contract, pair[1])
			src.SetMoveNonce(contract, 1)
			src.Commit()
			valid, err := BuildMoveProof(src, contract, 1)
			if err != nil {
				t.Fatal(err)
			}
			hs := NewHeaderStore(params(pair[0]))
			publish(t, hs, params(pair[0]), 1, src.Root())
			edit := func(f func(s []types.StorageEntry) []types.StorageEntry) *types.Move2Payload {
				p := *valid
				p.Storage = f(slices.Clone(valid.Storage))
				return &p
			}
			payloads := []*types.Move2Payload{
				valid,
				edit(func(s []types.StorageEntry) []types.StorageEntry { s[1].Value = evm.Word{}; return s }),
				edit(func(s []types.StorageEntry) []types.StorageEntry { s[0], s[1] = s[1], s[0]; return s }),
				edit(func(s []types.StorageEntry) []types.StorageEntry { return slices.Insert(s, 1, s[1]) }),
				edit(func(s []types.StorageEntry) []types.StorageEntry { s[2].Value[0] ^= 1; return s }),
				edit(func(s []types.StorageEntry) []types.StorageEntry { return s[1:] }),
				edit(func(s []types.StorageEntry) []types.StorageEntry { return nil }),
				{Contract: contract, SourceChain: 42}, // unknown source
			}
			for i, p := range payloads {
				ref, err := state.NewDB(pair[1], kinds[pair[1]])
				if err != nil {
					t.Fatal(err)
				}
				got, err := state.NewDB(pair[1], kinds[pair[1]])
				if err != nil {
					t.Fatal(err)
				}
				refAcct, refErr := VerifyMove2(pair[1], ref, hs, p)
				s := prepared(hs, kinds[pair[1]], p)
				acct, gotErr := VerifyPreparedMove2(pair[1], got, hs, p, s)
				if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
					t.Fatalf("%s→%s, %d slots, payload %d: prepared says %v, VerifyMove2 %v",
						pair[0], pair[1], slots, i, gotErr, refErr)
				}
				if (refErr == nil) != (i == 0) {
					t.Fatalf("%s→%s, %d slots, payload %d: VerifyMove2 says %v", pair[0], pair[1], slots, i, refErr)
				}
				if refErr != nil {
					continue
				}
				ApplyMove2(ref, p, refAcct)
				got.ImportAccount(p.Contract, acct, p.Code, s.Tree)
				if g, r := got.Commit(), ref.Commit(); g != r {
					t.Fatalf("%s→%s, %d slots: prepared install commits to %s, ApplyMove2 to %s", pair[0], pair[1], slots, g, r)
				}
			}
		}
	}
}

// TestRevertedMove2RestoresStaleCopy pins the Move2 install's undo: the
// target still holds the stale copy of an earlier residency (three slots;
// abroad one was deleted and one changed), a Move2 replaces that storage,
// moveFinish writes and then fails, and the revert must put back the stale
// copy exactly — every slot, the record and the state root. The second
// attempt then commits, and the slot deleted abroad is gone from the file
// store too. Run in memory (the stale tree is resident) and over a file
// store with the tree evicted (the stale copy is only on disk).
func TestRevertedMove2RestoresStaleCopy(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) state.Options
	}{
		{"memory", func(*testing.T) state.Options { return state.Options{} }},
		{"file_evicted", func(t *testing.T) state.Options {
			return state.Options{Backend: backend.KindFile, Dir: t.TempDir(), StorageTreeLimit: 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := state.NewDB(chainA, trie.KindMPT)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := state.NewDBWith(chainB, trie.KindIAVL, tc.opts(t))
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			contract, other := addr(0xc0), addr(0xc1)

			// The stale copy at home, then unrelated traffic that evicts its
			// tree where trees are evictable.
			dst.CreateContract(contract, []byte("movable code"))
			for i := byte(1); i <= 3; i++ {
				dst.SetStorage(contract, word(i), word(10*i))
			}
			dst.SetLocation(contract, chainA)
			dst.SetMoveNonce(contract, 1)
			dst.Commit()
			dst.CreateContract(other, []byte("other"))
			dst.SetStorage(other, word(1), word(1))
			staleRoot := dst.Commit()
			_, resident := dst.StorageTreeAt(contract)
			if want := tc.name == "memory"; resident != want {
				t.Fatalf("stale tree resident = %v, want %v", resident, want)
			}
			staleAcct, _ := dst.GetAccount(contract)
			stale := dst.StorageEntries(contract)

			// Abroad: slot 3 deleted, slot 1 changed, then locked towards home.
			src.CreateContract(contract, []byte("movable code"))
			src.SetStorage(contract, word(1), word(11))
			src.SetStorage(contract, word(2), word(20))
			src.SetLocation(contract, chainB)
			src.SetMoveNonce(contract, 2)
			src.Commit()
			payload, err := BuildMoveProof(src, contract, 1)
			if err != nil {
				t.Fatal(err)
			}
			hs := NewHeaderStore(paramsA(), paramsB())
			publish(t, hs, paramsA(), 1, src.Root())

			attempt := func() int {
				snap := dst.Snapshot()
				acct, err := VerifyMove2(chainB, dst, hs, payload)
				if err != nil {
					t.Fatal(err)
				}
				ApplyMove2(dst, payload, acct)
				if got := dst.GetStorage(contract, word(3)); got != (evm.Word{}) {
					t.Fatalf("slot deleted abroad reads %x after the install", got)
				}
				if got := dst.GetStorage(contract, word(1)); got != word(11) {
					t.Fatalf("slot changed abroad reads %x after the install", got)
				}
				dst.SetStorage(contract, word(9), word(99)) // moveFinish at work
				return snap
			}
			dst.RevertToSnapshot(attempt()) // moveFinish failed
			if got := dst.StorageEntries(contract); !slices.Equal(got, stale) {
				t.Fatalf("storage after the revert %v, stale copy %v", got, stale)
			}
			for _, k := range []byte{1, 2, 3, 9} {
				want := word(10 * k)
				if k == 9 {
					want = evm.Word{}
				}
				if got := dst.GetStorage(contract, word(k)); got != want {
					t.Fatalf("slot %d after the revert reads %x, want %x", k, got, want)
				}
			}
			if got, _ := dst.GetAccount(contract); got != staleAcct {
				t.Fatalf("record after the revert %+v, want %+v", got, staleAcct)
			}
			if got := dst.Commit(); got != staleRoot {
				t.Fatalf("root after the revert %s, want %s", got, staleRoot)
			}

			attempt() // this time moveFinish succeeds
			dst.Commit()
			want := []state.StorageEntry{{Key: word(1), Value: word(11)}, {Key: word(2), Value: word(20)}, {Key: word(9), Value: word(99)}}
			if got := dst.StorageEntries(contract); !slices.Equal(got, want) {
				t.Fatalf("committed storage %v, want %v", got, want)
			}
			if dst.Backend() == nil {
				return // the trees are the only copy
			}
			var flat []state.StorageEntry
			dst.Backend().IterateStorage(contract, func(key, val backend.Word) bool {
				flat = append(flat, state.StorageEntry{Key: key, Value: val})
				return true
			})
			if !slices.Equal(flat, want) {
				t.Fatalf("committed storage in the file store %v, want %v", flat, want)
			}
		})
	}
}
