package relay

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/simclock"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// signedTx builds and signs a transaction for journal tests.
func signedTx(t testing.TB, kp *keys.KeyPair, nonce uint64, kind types.TxKind, payload *types.Move2Payload) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		ChainID:  1,
		Nonce:    nonce,
		Kind:     kind,
		To:       hashing.AddressFromBytes([]byte{0x42}),
		Value:    u256.FromUint64(7),
		GasLimit: DefaultGasLimit,
		GasPrice: DefaultGasPrice,
		Move2:    payload,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func testPayload() *types.Move2Payload {
	return &types.Move2Payload{
		Contract:     hashing.AddressFromBytes([]byte{0xc0}),
		SourceChain:  2,
		SourceHeight: 17,
		AccountProof: []byte{1, 2, 3, 4},
		Code:         []byte("contract code"),
		Storage: []types.StorageEntry{
			{Key: evm.Word{1}, Value: evm.Word{2}},
			{Key: evm.Word{3}, Value: evm.Word{4}},
		},
	}
}

// testJournal builds a journal with one entry per interesting stage.
func testJournal(t testing.TB) *Journal {
	t.Helper()
	kp := keys.Deterministic(11)
	payload := testPayload()
	move1 := signedTx(t, kp, 0, types.TxCall, nil)
	move2 := signedTx(t, kp, 1, types.TxMove2, payload)
	j := NewJournal()
	j.put(&Entry{
		Contract:    hashing.AddressFromBytes([]byte{0x01}),
		MoveToInput: []byte{0xaa, 0xbb},
		Stage:       StageMove1Submitted,
		Move1:       move1,
		Attempts:    2,
		Result: &MoveResult{
			Contract:  hashing.AddressFromBytes([]byte{0x01}),
			Move1Tx:   move1.ID(),
			StartedAt: 3 * time.Second,
		},
	})
	j.put(&Entry{
		Contract: hashing.AddressFromBytes([]byte{0x02}),
		Stage:    StageWaitConfirm,
		Payload:  payload,
		Result: &MoveResult{
			Contract:  hashing.AddressFromBytes([]byte{0x02}),
			StartedAt: time.Second,
			Move1At:   2 * time.Second,
		},
	})
	j.put(&Entry{
		Contract: hashing.AddressFromBytes([]byte{0x03}),
		Stage:    StageMove2Submitted,
		Move2:    move2,
		Payload:  payload,
		Result: &MoveResult{
			Contract:     hashing.AddressFromBytes([]byte{0x03}),
			Move2Tx:      move2.ID(),
			StartedAt:    time.Second,
			Move1At:      2 * time.Second,
			ProofReadyAt: 10 * time.Second,
		},
	})
	j.put(&Entry{
		Contract: hashing.AddressFromBytes([]byte{0x04}),
		Stage:    StageDone,
		Result: &MoveResult{
			Contract: hashing.AddressFromBytes([]byte{0x04}),
			Move1Gas: 21_000,
			Move2Gas: 90_000,
			Move2At:  30 * time.Second,
		},
	})
	j.put(&Entry{
		Contract: hashing.AddressFromBytes([]byte{0x05}),
		Stage:    StageFailed,
		Result: &MoveResult{
			Contract: hashing.AddressFromBytes([]byte{0x05}),
			Err:      errors.New("move2: simulated failure"),
		},
	})
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	j := testJournal(t)
	enc := j.Encode()
	dec, err := DecodeJournal(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.order) != len(j.order) {
		t.Fatalf("entries = %d, want %d", len(dec.order), len(j.order))
	}
	for i, c := range j.order {
		if dec.order[i] != c {
			t.Fatalf("order[%d] = %s, want %s", i, dec.order[i], c)
		}
		a, b := j.entries[c], dec.entries[c]
		if a.Stage != b.Stage || a.Attempts != b.Attempts {
			t.Fatalf("entry %s: stage/attempts %v/%d, want %v/%d", c, b.Stage, b.Attempts, a.Stage, a.Attempts)
		}
		if a.Result.Move1Tx != b.Result.Move1Tx || a.Result.Move2Tx != b.Result.Move2Tx {
			t.Fatalf("entry %s: result tx ids differ", c)
		}
		if (a.Move1 == nil) != (b.Move1 == nil) || (a.Move1 != nil && a.Move1.ID() != b.Move1.ID()) {
			t.Fatalf("entry %s: move1 mismatch", c)
		}
		if (a.Move2 == nil) != (b.Move2 == nil) || (a.Move2 != nil && a.Move2.ID() != b.Move2.ID()) {
			t.Fatalf("entry %s: move2 mismatch", c)
		}
	}
	// The encoding is deterministic, so a decoded journal re-encodes to the
	// same bytes — the strongest equality check for every remaining field.
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encoded journal differs from original encoding")
	}
	// In-flight filtering survives the round trip: pending/submitted/waiting
	// entries are live, done/failed are not.
	if got := len(dec.InFlight()); got != 3 {
		t.Fatalf("in-flight after decode = %d, want 3", got)
	}
}

// TestJournalBitFlips flips every bit of the encoded journal, one at a
// time: decoding must never panic, and must either reject the journal with
// an error or produce a stage-consistent one (a flip in a gas field is
// legitimately undetectable).
func TestJournalBitFlips(t *testing.T) {
	enc := testJournal(t).Encode()
	rejected := 0
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("flip byte %d bit %d: panic: %v", i, bit, r)
					}
				}()
				if _, err := DecodeJournal(mut); err != nil {
					rejected++
					if !errors.Is(err, ErrCorruptJournal) {
						t.Fatalf("flip byte %d bit %d: error not wrapped as ErrCorruptJournal: %v", i, bit, err)
					}
				}
			}()
		}
	}
	if rejected == 0 {
		t.Fatal("no bit flip was ever rejected")
	}
}

// TestJournalRejectsAttemptsOutsideBudget: an entry's attempt count must
// lie in 0..maxAttempts. A count of 2⁶³ or more decodes to a negative int,
// which would never reach the budget and retry the move without end; one
// above the budget is as corrupt. Both are rejected, and a spent budget is
// not.
func TestJournalRejectsAttemptsOutsideBudget(t *testing.T) {
	for _, c := range []struct {
		attempts int
		ok       bool
	}{{maxAttempts, true}, {maxAttempts + 1, false}, {math.MinInt64, false}, {-1, false}} {
		j := testJournal(t)
		e, _ := j.Entry(hashing.AddressFromBytes([]byte{0x01}))
		e.Attempts = c.attempts
		_, err := DecodeJournal(j.Encode())
		if c.ok != (err == nil) || (err != nil && !errors.Is(err, ErrCorruptJournal)) {
			t.Errorf("attempts %d: decode error %v, want accepted %v", c.attempts, err, c.ok)
		}
	}
}

// TestValidateNamesTheHole: validate rejects what no decoder produces — an
// entry without its result record, or at a stage that does not exist —
// naming what is wrong.
func TestValidateNamesTheHole(t *testing.T) {
	for _, c := range []struct {
		entry *Entry
		want  string
	}{
		{&Entry{Stage: StagePending}, "missing result record"},
		{&Entry{Stage: Stage(42), Result: &MoveResult{}}, "unknown stage 42"},
		{&Entry{Stage: StagePending, Attempts: -3, Result: &MoveResult{}}, "-3 attempts outside the budget"},
	} {
		if err := c.entry.validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("validate = %v, want %q", err, c.want)
		}
	}
}

// FuzzDecodeJournal feeds arbitrary bytes to the journal decoder, whose
// input is untrusted: it must never panic, and a journal it accepts must
// re-encode to bytes that decode to the same journal.
func FuzzDecodeJournal(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(testJournal(f).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeJournal(data)
		if err != nil {
			return
		}
		enc := j.Encode()
		again, err := DecodeJournal(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted journal failed: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("round trip changed the journal")
		}
	})
}

// TestJournalTruncation decodes every strict prefix of the encoding: all
// must fail cleanly (the entry count is recorded up front, so missing bytes
// are always detectable).
func TestJournalTruncation(t *testing.T) {
	enc := testJournal(t).Encode()
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeJournal(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(enc))
		}
	}
}

// TestJournalErrorNamesEntryIndex corrupts the second entry specifically
// and checks the decode error identifies it by index.
func TestJournalErrorNamesEntryIndex(t *testing.T) {
	j := testJournal(t)
	// Truncate inside the last entry: everything before decodes, the final
	// entry fails, and the error must say which one.
	enc := j.Encode()
	_, err := DecodeJournal(enc[:len(enc)-3])
	if err == nil {
		t.Fatal("truncated journal decoded successfully")
	}
	if !strings.Contains(err.Error(), "entry 4") {
		t.Fatalf("error does not identify the broken entry: %v", err)
	}
}

// TestRecoverRejectsMalformedEntry hands Recover a journal whose in-flight
// entry is missing the transaction its stage requires: Recover must return
// a wrapped error naming the entry instead of panicking mid-replay.
func TestRecoverRejectsMalformedEntry(t *testing.T) {
	j := NewJournal()
	contract := hashing.AddressFromBytes([]byte{0x09})
	j.put(&Entry{
		Contract: contract,
		Stage:    StageMove1Submitted, // but Move1 is nil
		Result:   &MoveResult{Contract: contract},
	})
	m := NewMover(simclock.New(), nil, nil, j, metrics.NewCounters())
	err := m.Recover(nil)
	if err == nil {
		t.Fatal("recover accepted a stage-inconsistent entry")
	}
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("error not wrapped as ErrCorruptJournal: %v", err)
	}
	if !strings.Contains(err.Error(), "entry 0") || !strings.Contains(err.Error(), contract.String()) {
		t.Fatalf("error does not identify the entry: %v", err)
	}
}
