// Package codec implements the deterministic binary encoding used for
// everything that is hashed or proved: accounts, transactions, block
// headers, trie nodes, and Merkle proofs.
//
// The format is a simple length-prefixed concatenation (unsigned varints
// for integers and lengths). Determinism — the same logical value always
// encodes to the same bytes — is the only property the Move protocol needs
// from its wire format; this replaces RLP (Ethereum) and Amino (Burrow).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"scmove/internal/hashing"
)

// Errors returned by the reader.
var (
	ErrTruncated = errors.New("codec: truncated input")
	ErrOverflow  = errors.New("codec: length prefix overflows input")
)

// Writer accumulates an encoding. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// AppendTo returns a writer that appends to buf, for an encoder writing
// into a buffer its caller owns; Bytes returns buf extended.
func AppendTo(buf []byte) Writer { return Writer{buf: buf} }

// Bytes returns the encoded bytes. The returned slice aliases the writer's
// buffer; callers must not retain it across further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// SizeUvarint returns the number of bytes WriteUvarint writes for v.
func SizeUvarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// SizeBytes returns the number of bytes WriteBytes writes for an n-byte
// string: the length prefix and the string. Encoders that know their size
// up front presize one buffer with it and write each byte once.
func SizeBytes(n int) int { return SizeUvarint(uint64(n)) + n }

// WriteUvarint appends an unsigned varint.
func (w *Writer) WriteUvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// WriteBool appends a boolean as a single byte.
func (w *Writer) WriteBool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// WriteBytes appends a length-prefixed byte string.
func (w *Writer) WriteBytes(b []byte) {
	w.WriteUvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// WriteString appends a length-prefixed string.
func (w *Writer) WriteString(s string) {
	w.WriteUvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// WriteHash appends a fixed-width hash.
func (w *Writer) WriteHash(h hashing.Hash) {
	w.buf = append(w.buf, h[:]...)
}

// WriteAddress appends a fixed-width address.
func (w *Writer) WriteAddress(a hashing.Address) {
	w.buf = append(w.buf, a[:]...)
}

// WriteWord appends a fixed 32-byte word.
func (w *Writer) WriteWord(word [32]byte) {
	w.buf = append(w.buf, word[:]...)
}

// Reader decodes an encoding produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error encountered, if any. All read methods
// return zero values after an error, so callers may check once at the end.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) { //nolint:unparam
	if r.err == nil {
		r.err = err
	}
}

// ReadUvarint reads an unsigned varint.
func (r *Reader) ReadUvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// ReadBool reads a boolean byte.
func (r *Reader) ReadBool() bool {
	b := r.take(1)
	return b != nil && b[0] != 0
}

// ReadBytes reads a length-prefixed byte string, returning a copy.
//
// Allocation is bounded by the remaining input, never by the claimed
// length: a hostile 2^60 prefix fails with ErrOverflow before any memory
// proportional to the claim is touched. This invariant is what lets every
// decoder built on Reader face adversarial bytes safely.
func (r *Reader) ReadBytes() []byte {
	b := r.ReadBytesView()
	if r.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// ReadBytesView is ReadBytes without the copy: the returned slice aliases
// the reader's input, so it lives only as long as that input and must not
// be written. Decoders read an enclosing body they parse further, and do
// not keep, through it; what they keep they read with ReadBytes.
func (r *Reader) ReadBytesView() []byte {
	n := r.ReadUvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrOverflow)
		return nil
	}
	return r.take(int(n))
}

// ReadBytesMax reads a length-prefixed byte string whose length must not
// exceed max; longer claims fail with ErrOverflow before allocating.
// Decoders use it to enforce semantic field bounds (a signature, a code
// blob) on top of Reader's structural remaining-input bound.
func (r *Reader) ReadBytesMax(max int) []byte {
	if r.err != nil {
		return nil
	}
	// Peek the prefix without committing so the overflow error wins over a
	// misleading ErrTruncated from a partial read.
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return nil
	}
	if max >= 0 && v > uint64(max) {
		r.fail(ErrOverflow)
		return nil
	}
	return r.ReadBytes()
}

// CapCount bounds a claimed element count by what the remaining input could
// possibly hold, given a minimum encoded size per element. Decoders use it
// to size slice preallocations so a corrupted count prefix costs
// O(remaining), never O(claimed).
func (r *Reader) CapCount(claimed uint64, minEntrySize int) int {
	if minEntrySize < 1 {
		minEntrySize = 1
	}
	max := uint64(r.Remaining() / minEntrySize)
	if claimed > max {
		return int(max)
	}
	return int(claimed)
}

// ReadString reads a length-prefixed string.
func (r *Reader) ReadString() string { return string(r.ReadBytes()) }

// ReadHash reads a fixed-width hash.
func (r *Reader) ReadHash() hashing.Hash {
	b := r.take(hashing.HashSize)
	if b == nil {
		return hashing.Hash{}
	}
	return hashing.HashFromBytes(b)
}

// ReadAddress reads a fixed-width address.
func (r *Reader) ReadAddress() hashing.Address {
	b := r.take(hashing.AddressSize)
	if b == nil {
		return hashing.Address{}
	}
	var a hashing.Address
	copy(a[:], b)
	return a
}

// ReadWord reads a fixed 32-byte word.
func (r *Reader) ReadWord() [32]byte {
	var word [32]byte
	b := r.take(32)
	if b != nil {
		copy(word[:], b)
	}
	return word
}

// Finish returns an error unless the input was fully and cleanly consumed.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("codec: %d trailing bytes", r.Remaining())
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}
