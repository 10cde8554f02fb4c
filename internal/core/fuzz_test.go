package core

import (
	"fmt"
	"slices"
	"testing"

	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
)

// FuzzVerifyMove2AccountProof mutates the account proof bytes of an
// otherwise valid Move2 payload: verification must never panic and must
// only ever accept the exact original proof.
func FuzzVerifyMove2AccountProof(f *testing.F) {
	src, err := state.NewDB(chainA, trie.KindMPT)
	if err != nil {
		f.Fatal(err)
	}
	contract := addr(0xF0)
	src.CreateContract(contract, []byte("fuzz code"))
	src.SetStorage(contract, word(1), word(2))
	src.SetLocation(contract, chainB)
	src.SetMoveNonce(contract, 1)
	src.Commit()
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		f.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	rootHeader := &types.Header{ChainID: chainA, Height: 1, StateRoot: src.Root()}
	if err := hs.Update(chainA, []*types.Header{rootHeader}, 1+paramsA().ConfirmationDepth); err != nil {
		f.Fatal(err)
	}
	original := append([]byte{}, payload.AccountProof...)

	f.Add(original)
	f.Add(original[:len(original)/2])
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})

	f.Fuzz(func(t *testing.T, proof []byte) {
		dst, err := state.NewDB(chainB, trie.KindIAVL)
		if err != nil {
			t.Fatal(err)
		}
		p := *payload
		p.AccountProof = proof
		acct, err := VerifyMove2(chainB, dst, hs, &p)
		if err != nil {
			return
		}
		// Only the genuine proof verifies, and then the account is exact.
		if string(proof) != string(original) {
			t.Fatalf("mutated proof accepted (%d bytes)", len(proof))
		}
		if acct.MoveNonce != 1 || acct.Location != chainB {
			t.Fatalf("verified account mismatch: %+v", acct)
		}
	})
}

// FuzzVerifyMove2Storage mutates the storage payload — a byte of one entry
// flipped, two neighbours swapped, or one entry carried twice (pos >= 128
// selects the last two) — and completeness must reject any change. The
// swap and the duplicate leave the set of slots what the source proved:
// they are refused because a payload lists each slot once, in key order.
// Verifying with PrepareMove2's result must give the inline verdict.
//
// entry >= 128 runs the delta mode on newDeltaCase's return trip: the same
// flips, and (pos >= 128) a tombstone for a key the copy lacks, the
// tombstone dropped, an entry carried twice or an entry dropped; any change
// is refused, and the verdict over PrepareMove2's result is the inline
// one.
func FuzzVerifyMove2Storage(f *testing.F) {
	src, err := state.NewDB(chainA, trie.KindMPT)
	if err != nil {
		f.Fatal(err)
	}
	contract := addr(0xF1)
	src.CreateContract(contract, []byte("code"))
	for i := byte(1); i <= 4; i++ {
		src.SetStorage(contract, word(i), word(i+10))
	}
	src.SetLocation(contract, chainB)
	src.SetMoveNonce(contract, 1)
	src.Commit()
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		f.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	rootHeader := &types.Header{ChainID: chainA, Height: 1, StateRoot: src.Root()}
	if err := hs.Update(chainA, []*types.Header{rootHeader}, 1+paramsA().ConfirmationDepth); err != nil {
		f.Fatal(err)
	}

	f.Add(uint8(0), uint8(0), uint8(0))     // identity
	f.Add(uint8(1), uint8(31), uint8(1))    // flip value byte
	f.Add(uint8(2), uint8(0), uint8(9))     // flip key byte
	f.Add(uint8(1), uint8(128), uint8(0))   // swap entries 1 and 2
	f.Add(uint8(3), uint8(128), uint8(0))   // swap the last entry with the first
	f.Add(uint8(2), uint8(192), uint8(0))   // carry entry 2 twice
	f.Add(uint8(128), uint8(0), uint8(0))   // delta: identity
	f.Add(uint8(128), uint8(31), uint8(1))  // delta: flip value byte
	f.Add(uint8(129), uint8(0), uint8(9))   // delta: flip key byte
	f.Add(uint8(128), uint8(128), uint8(0)) // delta: tombstone for a key the copy lacks
	f.Add(uint8(128), uint8(160), uint8(0)) // delta: tombstone dropped
	f.Add(uint8(129), uint8(192), uint8(0)) // delta: carry entry 1 twice
	f.Add(uint8(128), uint8(224), uint8(0)) // delta: drop entry 0

	dc := newDeltaCase(f)
	genuine := dc.delta(f)
	base := dc.dst.StorageEntries(dc.contract)

	f.Fuzz(func(t *testing.T, entry, pos, delta uint8) {
		if entry >= 128 {
			fuzzDelta(t, dc, genuine, base, entry, pos, delta)
			return
		}
		dst, err := state.NewDB(chainB, trie.KindIAVL)
		if err != nil {
			t.Fatal(err)
		}
		p := *payload
		p.Storage = append([]types.StorageEntry{}, payload.Storage...)
		mutated := false
		i := int(entry) % len(p.Storage)
		switch {
		case pos >= 192:
			p.Storage = slices.Insert(p.Storage, i, p.Storage[i])
			mutated = true
		case pos >= 128:
			j := (i + 1) % len(p.Storage)
			p.Storage[i], p.Storage[j] = p.Storage[j], p.Storage[i]
			mutated = true
		case delta != 0:
			e := p.Storage[i]
			if pos%2 == 0 {
				e.Key[pos%32] ^= delta
			} else {
				e.Value[pos%32] ^= delta
			}
			if e != payload.Storage[i] {
				mutated = true
			}
			p.Storage[i] = e
		}
		_, err = VerifyMove2(chainB, dst, hs, &p)
		if mutated && err == nil {
			t.Fatalf("mutated storage accepted (entry %d pos %d delta %d)", entry, pos, delta)
		}
		if !mutated && err != nil {
			t.Fatalf("unmutated payload rejected: %v", err)
		}
		// The prepared verdict is the inline one, error text included.
		_, prepErr := VerifyPreparedMove2(chainB, dst, hs, &p, prepared(hs, dst.TreeKind(), &p))
		if fmt.Sprint(prepErr) != fmt.Sprint(err) {
			t.Fatalf("prepared verification says %v, inline %v", prepErr, err)
		}
	})
}

// fuzzDelta is FuzzVerifyMove2Storage's delta mode: it mutates the genuine
// delta as the arguments say and checks the inline and the prepared
// verdicts.
func fuzzDelta(t *testing.T, dc deltaCase, genuine *types.Move2Payload, base []types.StorageEntry, entry, pos, delta uint8) {
	p := *genuine
	p.Storage, p.Deleted = slices.Clone(genuine.Storage), slices.Clone(genuine.Deleted)
	i := int(entry) % len(p.Storage)
	mutated := true
	switch {
	case pos >= 224:
		p.Storage = slices.Delete(p.Storage, i, i+1)
	case pos >= 192:
		p.Storage = slices.Insert(p.Storage, i, p.Storage[i])
	case pos >= 160:
		p.Deleted = nil
	case pos >= 128:
		p.Deleted = append(p.Deleted, word(7))
	case delta != 0:
		e := p.Storage[i]
		if pos%2 == 0 {
			e.Key[pos%32] ^= delta
		} else {
			e.Value[pos%32] ^= delta
		}
		mutated = e != genuine.Storage[i]
		p.Storage[i] = e
	default:
		mutated = false
	}
	_, err := VerifyMove2(chainB, dc.dst, dc.hs, &p)
	if mutated && err == nil {
		t.Fatalf("mutated delta accepted (entry %d pos %d delta %d): %+v", entry, pos, delta, p)
	}
	if !mutated && err != nil {
		t.Fatalf("genuine delta rejected: %v", err)
	}
	s, _ := PrepareMove2(dc.hs, dc.dst.TreeKind(), &p, base, nil)
	if _, prepErr := VerifyPreparedMove2(chainB, dc.dst, dc.hs, &p, s); fmt.Sprint(prepErr) != fmt.Sprint(err) {
		t.Fatalf("prepared verification says %v, inline %v", prepErr, err)
	}
}
