package relay

import (
	"errors"
	"fmt"

	"time"

	"scmove/internal/codec"
	"scmove/internal/hashing"
	"scmove/internal/types"
)

// ErrCorruptJournal reports that a serialized journal failed to decode or
// that a journaled entry is not internally consistent with its stage.
var ErrCorruptJournal = errors.New("relay: corrupt journal")

// journalVersion versions the wire format of Journal.Encode.
const journalVersion = 1

// Entry flags: which optional fields are present in the encoding.
const (
	entryHasMoveToInput = 1 << iota
	entryHasMove1
	entryHasMove2
	entryHasPayload
	entryHasErr
)

// validate checks that an entry carries everything its recorded stage needs
// to re-enter the state machine. A journal that came off a disk (or a wire)
// can be arbitrarily mangled; validate is what keeps Recover from
// dereferencing a hole mid-replay.
func (e *Entry) validate() error {
	if e.Result == nil {
		return errors.New("missing result record")
	}
	switch e.Stage {
	case StagePending, StageDone, StageFailed:
	case StageMove1Submitted:
		if e.Move1 == nil {
			return errors.New("stage move1-submitted without a signed Move1 transaction")
		}
	case StageWaitConfirm:
		if e.Payload == nil {
			return errors.New("stage wait-confirm without a proof payload")
		}
	case StageMove2Submitted:
		// Move2 retries fall back to the confirmation wait and rebuild the
		// transaction from the payload, so both must be present.
		if e.Move2 == nil {
			return errors.New("stage move2-submitted without a signed Move2 transaction")
		}
		if e.Payload == nil {
			return errors.New("stage move2-submitted without a proof payload")
		}
	default:
		return fmt.Errorf("unknown stage %d", uint8(e.Stage))
	}
	if e.Attempts < 0 || e.Attempts > maxAttempts {
		return fmt.Errorf("%d attempts outside the budget 0..%d", e.Attempts, maxAttempts)
	}
	return nil
}

// Encode serializes the journal: every entry in acceptance order with its
// stage marker, signed transactions, and proof payload — everything a
// replacement Mover needs to Recover after handing the bytes through
// DecodeJournal. Completion callbacks (done) are not serializable and are
// dropped; a decoded journal resumes moves without notifying the original
// caller.
func (j *Journal) Encode() []byte {
	w := codec.NewWriter(256 * len(j.order))
	w.WriteUvarint(journalVersion)
	w.WriteUvarint(uint64(len(j.order)))
	for _, c := range j.order {
		encodeEntry(w, j.entries[c])
	}
	return w.Bytes()
}

func encodeEntry(w *codec.Writer, e *Entry) {
	var flags uint64
	if e.MoveToInput != nil {
		flags |= entryHasMoveToInput
	}
	if e.Move1 != nil {
		flags |= entryHasMove1
	}
	if e.Move2 != nil {
		flags |= entryHasMove2
	}
	if e.Payload != nil {
		flags |= entryHasPayload
	}
	if e.Result.Err != nil {
		flags |= entryHasErr
	}
	w.WriteAddress(e.Contract)
	w.WriteUvarint(flags)
	w.WriteUvarint(uint64(e.Stage))
	if e.MoveToInput != nil {
		w.WriteBytes(e.MoveToInput)
	}
	if e.Move1 != nil {
		w.WriteBytes(e.Move1.Encode())
	}
	if e.Move2 != nil {
		w.WriteBytes(e.Move2.Encode())
	}
	if e.Payload != nil {
		w.WriteBytes(types.EncodeMove2Payload(e.Payload))
	}
	w.WriteUvarint(uint64(e.Attempts))
	w.WriteHash(e.Result.Move1Tx)
	w.WriteHash(e.Result.Move2Tx)
	w.WriteUvarint(uint64(e.Result.StartedAt))
	w.WriteUvarint(uint64(e.Result.Move1At))
	w.WriteUvarint(uint64(e.Result.ProofReadyAt))
	w.WriteUvarint(uint64(e.Result.Move2At))
	w.WriteUvarint(e.Result.Move1Gas)
	w.WriteUvarint(e.Result.Move2Gas)
	if e.Result.Err != nil {
		w.WriteString(e.Result.Err.Error())
	}
}

// DecodeJournal parses a journal produced by Encode. The input is untrusted:
// any truncation, bit flip, or hostile length prefix yields a wrapped error
// naming the offending entry index, never a panic. Each decoded entry is
// validated against its stage so a later Recover cannot trip over a
// journaled hole.
func DecodeJournal(b []byte) (*Journal, error) {
	r := codec.NewReader(b)
	if v := r.ReadUvarint(); r.Err() != nil || v != journalVersion {
		return nil, fmt.Errorf("%w: unsupported version", ErrCorruptJournal)
	}
	n := r.ReadUvarint()
	j := &Journal{entries: make(map[hashing.Address]*Entry, r.CapCount(n, 32))}
	for i := uint64(0); i < n; i++ {
		e, err := decodeEntry(r)
		if err != nil {
			return nil, fmt.Errorf("%w: decode entry %d: %w", ErrCorruptJournal, i, err)
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("%w: entry %d (contract %s): %w", ErrCorruptJournal, i, e.Contract, err)
		}
		if _, dup := j.entries[e.Contract]; dup {
			return nil, fmt.Errorf("%w: entry %d: duplicate contract %s", ErrCorruptJournal, i, e.Contract)
		}
		j.put(e)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptJournal, err)
	}
	return j, nil
}

func decodeEntry(r *codec.Reader) (*Entry, error) {
	e := &Entry{Result: &MoveResult{}}
	e.Contract = r.ReadAddress()
	flags := r.ReadUvarint()
	stage := r.ReadUvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if stage > uint64(StageFailed) {
		return nil, fmt.Errorf("unknown stage %d", stage)
	}
	e.Stage = Stage(stage)
	if flags&entryHasMoveToInput != 0 {
		e.MoveToInput = append([]byte(nil), r.ReadBytes()...)
	}
	if flags&entryHasMove1 != 0 {
		tx, err := decodeEntryTx(r, "move1")
		if err != nil {
			return nil, err
		}
		e.Move1 = tx
	}
	if flags&entryHasMove2 != 0 {
		tx, err := decodeEntryTx(r, "move2")
		if err != nil {
			return nil, err
		}
		e.Move2 = tx
	}
	if flags&entryHasPayload != 0 {
		p, err := types.DecodeMove2Payload(r.ReadBytes())
		if err != nil {
			return nil, fmt.Errorf("payload: %w", err)
		}
		e.Payload = p
	}
	e.Attempts = int(r.ReadUvarint())
	e.Result.Contract = e.Contract
	e.Result.Move1Tx = r.ReadHash()
	e.Result.Move2Tx = r.ReadHash()
	e.Result.StartedAt = readDuration(r)
	e.Result.Move1At = readDuration(r)
	e.Result.ProofReadyAt = readDuration(r)
	e.Result.Move2At = readDuration(r)
	e.Result.Move1Gas = r.ReadUvarint()
	e.Result.Move2Gas = r.ReadUvarint()
	if flags&entryHasErr != 0 {
		e.Result.Err = errors.New(r.ReadString())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

func decodeEntryTx(r *codec.Reader, which string) (*types.Transaction, error) {
	enc := r.ReadBytes()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%s transaction: %w", which, err)
	}
	tx, err := types.DecodeTransaction(enc)
	if err != nil {
		return nil, fmt.Errorf("%s transaction: %w", which, err)
	}
	return tx, nil
}

func readDuration(r *codec.Reader) time.Duration { return time.Duration(r.ReadUvarint()) }
