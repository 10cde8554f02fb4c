package hashing

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Hasher accumulates hash input in a reusable append buffer and hashes it
// in one shot, avoiding both the per-call digest allocation of sha256.New
// and the intermediate concatenation slices callers would otherwise build
// for Sum/SumTagged. The zero value is ready to use; Reset makes one
// reusable across calls.
//
// A Hasher is not safe for concurrent use.
type Hasher struct {
	buf []byte
}

// NewHasher returns a hasher with capacity preallocated for sizeHint bytes.
func NewHasher(sizeHint int) *Hasher {
	return &Hasher{buf: make([]byte, 0, sizeHint)}
}

// Reset discards accumulated input, keeping the buffer capacity.
func (h *Hasher) Reset() { h.buf = h.buf[:0] }

// Byte appends a single byte.
func (h *Hasher) Byte(b byte) { h.buf = append(h.buf, b) }

// Write appends raw bytes.
func (h *Hasher) Write(p []byte) { h.buf = append(h.buf, p...) }

// Uvarint appends an unsigned varint, matching codec.Writer.WriteUvarint.
func (h *Hasher) Uvarint(v uint64) { h.buf = binary.AppendUvarint(h.buf, v) }

// LenPrefixed appends a length-prefixed byte string, matching
// codec.Writer.WriteBytes.
func (h *Hasher) LenPrefixed(p []byte) {
	h.Uvarint(uint64(len(p)))
	h.Write(p)
}

// Sum returns the chain hash of the accumulated input without allocating.
func (h *Hasher) Sum() Hash { return Hash(sha256.Sum256(h.buf)) }

// hasherPool recycles buffers for the variadic Sum/SumTagged helpers.
var hasherPool = sync.Pool{New: func() any { return NewHasher(256) }}

// AcquireHasher returns a reset Hasher from a shared pool. Callers release
// it with ReleaseHasher when done; the buffer is recycled.
func AcquireHasher() *Hasher {
	h, ok := hasherPool.Get().(*Hasher)
	if !ok {
		h = NewHasher(256)
	}
	h.Reset()
	return h
}

// ReleaseHasher returns a pooled hasher. The caller must not use it after.
func ReleaseHasher(h *Hasher) { hasherPool.Put(h) }
