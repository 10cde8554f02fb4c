package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"scmove/internal/hashing"
)

// Segment record format (little-endian, crc-terminated):
//
//	kind    1 byte
//	key     20 bytes (account records) | 52 bytes (slot records) | 32 bytes (commit marker root)
//	value   uvarint length + bytes (recAccount and recSlot only)
//	crc32   4 bytes, IEEE, over everything above
//
// The decoder is a hostile-input boundary: segment files survive crashes
// and may be truncated or corrupted, so every length is validated against
// the remaining input before any allocation (the PR-6 codec rule) and every
// record carries a checksum. A decode failure never panics.

// Record kinds.
const (
	recAccount    = 0x01 // account record upsert
	recAccountDel = 0x02 // account tombstone
	recSlot       = 0x03 // storage slot upsert (value is exactly wordSize bytes)
	recSlotDel    = 0x04 // storage slot tombstone
	recCommit     = 0x05 // commit marker carrying the new state root
	recCode       = 0x06 // content-addressed code blob (key is its hash)
)

const (
	wordSize = 32
	addrSize = hashing.AddressSize
	slotSize = addrSize + wordSize
	crcSize  = 4

	// maxRecordValue bounds one record's value length. Account records are
	// ~100 bytes and slots exactly 32; the cap only exists so a corrupted
	// length prefix cannot demand an absurd allocation.
	maxRecordValue = 1 << 16
)

// Segment decode errors.
var (
	// ErrShortRecord reports a record extending past the end of the input
	// (a torn tail write, or a corrupted length).
	ErrShortRecord = errors.New("backend: truncated segment record")
	// ErrBadRecord reports a structurally invalid record.
	ErrBadRecord = errors.New("backend: invalid segment record")
	// ErrBadChecksum reports a record whose payload does not match its crc.
	ErrBadChecksum = errors.New("backend: segment record checksum mismatch")
)

var crcTable = crc32.IEEETable

// record is one decoded segment record. Key and Value alias the input.
type record struct {
	Kind  byte
	Key   []byte // addr, addr+slot, or root depending on Kind
	Value []byte // recAccount / recSlot only
}

// recordLen is the length appendRecord encodes a record of kind with a key
// and a value of these lengths to.
func recordLen(kind byte, keyLen, valueLen int) int {
	n := 1 + keyLen + crcSize
	if kind == recAccount || kind == recSlot || kind == recCode {
		n += uvarintLen(uint64(valueLen)) + valueLen
	}
	return n
}

// appendRecord appends one encoded record (including its checksum) to dst.
func appendRecord(dst []byte, kind byte, key, value []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = append(dst, key...)
	if kind == recAccount || kind == recSlot || kind == recCode {
		dst = binary.AppendUvarint(dst, uint64(len(value)))
		dst = append(dst, value...)
	}
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// decodeRecord decodes the first record of b, returning it and the number
// of input bytes it consumed. The returned slices alias b.
func decodeRecord(b []byte) (record, int, error) {
	if len(b) == 0 {
		return record{}, 0, ErrShortRecord
	}
	kind := b[0]
	n := 1
	var keyLen int
	switch kind {
	case recAccount, recAccountDel:
		keyLen = addrSize
	case recSlot, recSlotDel:
		keyLen = slotSize
	case recCommit, recCode:
		keyLen = hashing.HashSize
	default:
		return record{}, 0, fmt.Errorf("%w: unknown kind 0x%02x", ErrBadRecord, kind)
	}
	if len(b) < n+keyLen {
		return record{}, 0, ErrShortRecord
	}
	rec := record{Kind: kind, Key: b[n : n+keyLen]}
	n += keyLen
	if kind == recAccount || kind == recSlot || kind == recCode {
		vlen, vn := binary.Uvarint(b[n:])
		if vn <= 0 {
			return record{}, 0, ErrShortRecord
		}
		n += vn
		if vlen > maxRecordValue {
			return record{}, 0, fmt.Errorf("%w: value length %d exceeds cap", ErrBadRecord, vlen)
		}
		if kind == recSlot && vlen != wordSize {
			return record{}, 0, fmt.Errorf("%w: slot value length %d", ErrBadRecord, vlen)
		}
		if kind == recAccount && vlen == 0 {
			return record{}, 0, fmt.Errorf("%w: empty account record", ErrBadRecord)
		}
		if uint64(len(b)-n) < vlen {
			return record{}, 0, ErrShortRecord
		}
		rec.Value = b[n : n+int(vlen)]
		n += int(vlen)
	}
	if len(b) < n+crcSize {
		return record{}, 0, ErrShortRecord
	}
	want := binary.LittleEndian.Uint32(b[n : n+crcSize])
	if crc32.Checksum(b[:n], crcTable) != want {
		return record{}, 0, ErrBadChecksum
	}
	return rec, n + crcSize, nil
}

// valueOffset returns where a record's value bytes start relative to the
// record start (so the index can point straight at them).
func valueOffset(rec record) int {
	// kind byte + key + uvarint(len(value))
	return 1 + len(rec.Key) + uvarintLen(uint64(len(rec.Value)))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
