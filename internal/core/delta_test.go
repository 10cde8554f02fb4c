package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
)

// deltaCase is a contract returning home: dst (IAVL) holds the copy it left
// there, slots 1-4 (10, 20, 30, 40) and 11-13 (110, 120, 130); abroad on src
// (MPT, or the source's kind in newDeltaCaseFrom) slot 1 became 11, slot 3
// was deleted and slot 5 written, and the contract is locked towards dst
// with its proven root published. The delta carries under half the full
// payload's bytes, so it is sent as one.
type deltaCase struct {
	src, dst *state.DB
	hs       *HeaderStore
	contract hashing.Address
}

func newDeltaCase(t testing.TB) deltaCase { return newDeltaCaseFrom(t, paramsA()) }

// newDeltaCaseFrom is newDeltaCase with the contract abroad on the chain of
// the given parameters.
func newDeltaCaseFrom(t testing.TB, from ChainParams) deltaCase {
	t.Helper()
	src, err := state.NewDB(from.ID, from.TreeKind)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := state.NewDB(chainB, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	c := deltaCase{src: src, dst: dst, hs: NewHeaderStore(from, paramsB()), contract: addr(0xd0)}
	dst.CreateContract(c.contract, []byte("movable code"))
	for _, i := range []byte{1, 2, 3, 4, 11, 12, 13} {
		dst.SetStorage(c.contract, word(i), word(10*i))
	}
	dst.SetLocation(c.contract, from.ID)
	dst.SetMoveNonce(c.contract, 1)
	dst.Commit()

	src.CreateContract(c.contract, []byte("movable code"))
	for _, kv := range [][2]byte{{1, 11}, {2, 20}, {4, 40}, {5, 50}, {11, 110}, {12, 120}, {13, 130}} {
		src.SetStorage(c.contract, word(kv[0]), word(kv[1]))
	}
	src.SetLocation(c.contract, chainB)
	src.SetMoveNonce(c.contract, 2)
	src.Commit()
	publish(t, c.hs, from, 1, src.Root())
	return c
}

func (c deltaCase) delta(t testing.TB) *types.Move2Payload {
	t.Helper()
	p, err := BuildMoveDelta(c.src, c.dst, c.contract, 1, new(MoveScratch))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildMoveDeltaShipsOnlyChanges: the payload back carries the changed
// and new entries, the deleted key and no code, names the copy's root as
// its base, and installs exactly what the full payload of the same proof
// installs: storage, record, code and state root.
func TestBuildMoveDeltaShipsOnlyChanges(t *testing.T) {
	c := newDeltaCase(t)
	p := c.delta(t)
	base, _ := c.dst.GetAccount(c.contract)
	wantEntries := []types.StorageEntry{{Key: word(1), Value: word(11)}, {Key: word(5), Value: word(50)}}
	if !p.IsDelta() || p.Base != base.StorageRoot || p.Code != nil ||
		!slices.Equal(p.Storage, wantEntries) || !slices.Equal(p.Deleted, []evm.Word{word(3)}) {
		t.Fatalf("delta %+v", p)
	}
	full, err := FullMove2(c.src, p)
	if err != nil {
		t.Fatal(err)
	}
	if built, _ := BuildMoveProof(c.src, c.contract, 1); !slices.Equal(types.EncodeMove2Payload(full), types.EncodeMove2Payload(built)) {
		t.Fatal("FullMove2 of the delta is not BuildMoveProof's payload")
	}

	other := newDeltaCase(t)
	for _, run := range []struct {
		db *state.DB
		p  *types.Move2Payload
	}{{c.dst, p}, {other.dst, full}} {
		acct, err := VerifyMove2(chainB, run.db, c.hs, run.p)
		if err != nil {
			t.Fatal(err)
		}
		ApplyMove2(run.db, run.p, acct)
	}
	if a, b := c.dst.StorageEntries(c.contract), other.dst.StorageEntries(c.contract); !slices.Equal(a, b) {
		t.Fatalf("delta installed %v, full %v", a, b)
	}
	a, _ := c.dst.GetAccount(c.contract)
	b, _ := other.dst.GetAccount(c.contract)
	if a != b || string(c.dst.GetCode(c.contract)) != "movable code" {
		t.Fatalf("delta installed %+v, full %+v", a, b)
	}
	if ra, rb := c.dst.Commit(), other.dst.Commit(); ra != rb {
		t.Fatalf("state root after the delta %s, after the full payload %s", ra, rb)
	}

	// A first Move, to a chain with no copy, is the full payload.
	fresh, err := state.NewDB(chainB, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	first, err := BuildMoveDelta(c.src, fresh, c.contract, 1, new(MoveScratch))
	if err != nil {
		t.Fatal(err)
	}
	if first.IsDelta() || !slices.Equal(types.EncodeMove2Payload(first), types.EncodeMove2Payload(full)) {
		t.Fatal("a Move to a chain without a copy must carry the full payload, byte for byte")
	}
}

// TestBuildMoveDeltaSendsLargeDeltasInFull: once the delta would carry more
// than half the full payload's storage bytes — here five of seven entries
// changed and one deleted — the payload is BuildMoveProof's, byte for byte.
func TestBuildMoveDeltaSendsLargeDeltasInFull(t *testing.T) {
	c := newDeltaCase(t)
	for _, k := range []byte{11, 12, 13} {
		c.src.SetStorage(c.contract, word(k), word(k))
	}
	c.src.Commit()
	p := c.delta(t)
	built, err := BuildMoveProof(c.src, c.contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsDelta() || !slices.Equal(types.EncodeMove2Payload(p), types.EncodeMove2Payload(built)) {
		t.Fatalf("a delta of 5 entries and a deletion over 7 entries was sent as %+v, want the full payload", p)
	}
}

// TestVerifyRefusesBadDeltas edits a genuine delta, or the target's copy it
// was built against, and requires each to be refused with its error, by the
// inline check and by the prepared one alike.
func TestVerifyRefusesBadDeltas(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(c deltaCase, p *types.Move2Payload)
		want error
	}{
		{"forged entry", func(_ deltaCase, p *types.Move2Payload) { p.Storage[0].Value = word(12) }, ErrIncompleteSet},
		{"dropped entry", func(_ deltaCase, p *types.Move2Payload) { p.Storage = p.Storage[1:] }, ErrIncompleteSet},
		{"duplicated entry", func(_ deltaCase, p *types.Move2Payload) {
			p.Storage = slices.Insert(p.Storage, 1, p.Storage[1])
		}, ErrIncompleteSet},
		{"injected entry", func(_ deltaCase, p *types.Move2Payload) {
			p.Storage = append(p.Storage, types.StorageEntry{Key: word(9), Value: word(90)})
		}, ErrIncompleteSet},
		{"tombstone for a key the copy lacks", func(_ deltaCase, p *types.Move2Payload) {
			p.Deleted = append(p.Deleted, word(7))
		}, ErrIncompleteSet},
		{"written and deleted", func(_ deltaCase, p *types.Move2Payload) {
			p.Deleted = []evm.Word{word(1), word(3)}
		}, ErrIncompleteSet},
		// The slot deleted abroad would survive at home.
		{"dropped tombstone", func(_ deltaCase, p *types.Move2Payload) { p.Deleted = nil }, ErrIncompleteSet},
		{"base pruned", func(c deltaCase, _ *types.Move2Payload) {
			if err := c.dst.PruneStale(c.contract); err != nil {
				panic(err)
			}
			c.dst.Commit()
		}, ErrStaleBase},
		{"base replaced", func(c deltaCase, _ *types.Move2Payload) {
			c.dst.SetStorage(c.contract, word(2), word(21))
			c.dst.Commit()
		}, ErrStaleBase},
		{"base not the copy", func(_ deltaCase, p *types.Move2Payload) { p.Base[0] ^= 1 }, ErrStaleBase},
		{"omitted code that is not the proven code", func(c deltaCase, _ *types.Move2Payload) {
			// The copy's record names other code; its storage, the base, is
			// the one the delta was built against.
			acct, _ := c.dst.GetAccount(c.contract)
			c.dst.ImportAccount(c.contract, acct, []byte("other code"), nil)
			c.dst.SetLocation(c.contract, chainA)
			c.dst.Commit()
		}, ErrIncompleteCode},
		{"carried code that is not the proven code", func(_ deltaCase, p *types.Move2Payload) {
			p.Code = []byte("other code")
		}, ErrIncompleteCode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newDeltaCase(t)
			p := c.delta(t)
			tc.edit(c, p)
			_, err := VerifyMove2(chainB, c.dst, c.hs, p)
			if !errors.Is(err, tc.want) {
				t.Fatalf("VerifyMove2 = %v, want %v", err, tc.want)
			}
			if _, berr := Move2Code(c.dst, p); berr == nil {
				s, _ := PrepareMove2(c.hs, c.dst.TreeKind(), p, AppendMove2Base(nil, c.dst, p), nil)
				if _, perr := VerifyPreparedMove2(chainB, c.dst, c.hs, p, s); fmt.Sprint(perr) != fmt.Sprint(err) {
					t.Fatalf("prepared verification says %v, inline %v", perr, err)
				}
			}
		})
	}
}

// TestCountMergeIsTheMergeLength: the gas count of a delta (Move2Entries)
// is its merge's length whenever the merge succeeds, and the copy's key set
// grown by the delta's new keys, less its deleted ones, otherwise.
func TestCountMergeIsTheMergeLength(t *testing.T) {
	c := newDeltaCase(t)
	p := c.delta(t)
	base := c.dst.StorageEntries(c.contract)
	merged, err := MergeMove2(nil, base, p)
	if err != nil {
		t.Fatal(err)
	}
	if n := Move2Entries(c.dst, p); n != len(merged) || n != len(c.src.StorageEntries(c.contract)) {
		t.Fatalf("Move2Entries %d, merge %d entries", n, len(merged))
	}
	p.Deleted = append(p.Deleted, word(7)) // refused by the merge, counted as 7
	if _, err := MergeMove2(nil, base, p); err == nil {
		t.Fatal("a tombstone for an absent key merged")
	}
	if n := Move2Entries(c.dst, p); n != 7 {
		t.Fatalf("Move2Entries of a refused delta %d, want 7", n)
	}
}

// TestSameKindDeltaInstallRefusesAsVerify: a delta between two chains of
// one tree kind needs no preparation; InstallMove2 writes it into the copy
// and compares the copy's updated root with the proven one. Every bad delta
// that the copy's content decides is refused with VerifyMove2's error, the
// forged, dropped and injected entries and the dropped tombstone by that
// root, and the revert leaves the copy as it was. The genuine delta
// installs the source's storage, as ApplyMove2 does.
func TestSameKindDeltaInstallRefusesAsVerify(t *testing.T) {
	burrow := ChainParams{ID: 3, TreeKind: trie.KindIAVL, ConfirmationDepth: 2}
	for _, tc := range []struct {
		name string
		edit func(p *types.Move2Payload)
	}{
		{"forged entry", func(p *types.Move2Payload) { p.Storage[0].Value = word(12) }},
		{"dropped entry", func(p *types.Move2Payload) { p.Storage = p.Storage[1:] }},
		{"duplicated entry", func(p *types.Move2Payload) { p.Storage = slices.Insert(p.Storage, 1, p.Storage[1]) }},
		{"injected entry", func(p *types.Move2Payload) {
			p.Storage = append(p.Storage, types.StorageEntry{Key: word(9), Value: word(90)})
		}},
		{"tombstone for a key the copy lacks", func(p *types.Move2Payload) { p.Deleted = append(p.Deleted, word(7)) }},
		{"written and deleted", func(p *types.Move2Payload) { p.Deleted = []evm.Word{word(1), word(3)} }},
		{"dropped tombstone", func(p *types.Move2Payload) { p.Deleted = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newDeltaCaseFrom(t, burrow)
			p := c.delta(t)
			tc.edit(p)
			_, want := VerifyMove2(chainB, c.dst, c.hs, p)
			if !errors.Is(want, ErrIncompleteSet) {
				t.Fatalf("VerifyMove2 = %v, want %v", want, ErrIncompleteSet)
			}
			before, root := c.dst.StorageEntries(c.contract), c.dst.Root()
			snap := c.dst.Snapshot()
			if err := InstallMove2(chainB, c.dst, c.hs, p, nil); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("InstallMove2 = %v, VerifyMove2 %v", err, want)
			}
			c.dst.RevertToSnapshot(snap)
			if got := c.dst.StorageEntries(c.contract); !slices.Equal(got, before) || c.dst.Commit() != root {
				t.Fatalf("the refused delta left the copy %v, was %v", got, before)
			}
		})
	}
	c := newDeltaCaseFrom(t, burrow)
	p := c.delta(t)
	if !p.IsDelta() || NeedsPreparation(c.hs, trie.KindIAVL, p) {
		t.Fatalf("a same-kind delta %+v asks for a preparation", p)
	}
	if err := InstallMove2(chainB, c.dst, c.hs, p, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := c.dst.StorageEntries(c.contract), c.src.StorageEntries(c.contract); !slices.Equal(got, want) {
		t.Fatalf("the delta installed %v, the source holds %v", got, want)
	}
}
