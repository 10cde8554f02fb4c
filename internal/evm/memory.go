package evm

import "scmove/internal/u256"

// maxMemoryBytes caps a frame's memory; real EVMs bound memory indirectly
// through quadratic gas, but an explicit cap keeps adversarial bytecode from
// forcing huge allocations before the gas check lands.
const maxMemoryBytes = 1 << 26 // 64 MiB

// memory is the byte-addressed volatile memory of one call frame. Gas for
// expansion is charged by the interpreter before resize is called.
type memory struct {
	data []byte
}

// size returns the current memory size in bytes (always a word multiple).
func (m *memory) size() uint64 { return uint64(len(m.data)) }

// expansionWords returns the new total word count if the range [off, off+n)
// must be addressable, or 0 if no expansion is needed. The second return
// value is false when the range overflows sane bounds.
func (m *memory) expansionWords(off, n u256.Int) (uint64, bool) {
	if n.IsZero() {
		return 0, true
	}
	if !off.IsUint64() || !n.IsUint64() {
		return 0, false
	}
	end := off.Uint64() + n.Uint64()
	if end < off.Uint64() || end > maxMemoryBytes {
		return 0, false
	}
	if end <= m.size() {
		return 0, true
	}
	return toWords(end), true
}

// resize grows memory to words*32 bytes. Spare capacity left behind by a
// pooled frame is reused, but must be cleared: EVM memory is defined to be
// zero-initialized, and the capacity may hold bytes from an earlier frame.
func (m *memory) resize(words uint64) {
	newSize := words * 32
	if newSize <= m.size() {
		return
	}
	if newSize <= uint64(cap(m.data)) {
		old := len(m.data)
		m.data = m.data[:newSize]
		clear(m.data[old:])
		return
	}
	grown := make([]byte, newSize)
	copy(grown, m.data)
	m.data = grown
}

// read returns a copy of n bytes at offset off.
func (m *memory) read(off, n uint64) []byte {
	out := make([]byte, n)
	copy(out, m.data[off:off+n])
	return out
}

// writeWord stores a 32-byte big-endian word at offset off.
func (m *memory) writeWord(off uint64, v u256.Int) {
	w := v.Bytes32()
	copy(m.data[off:], w[:])
}

// readWord loads the 32-byte word at offset off.
func (m *memory) readWord(off uint64) u256.Int {
	return u256.FromBytes(m.data[off : off+32])
}
