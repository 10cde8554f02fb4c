package codec

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReaderRoundTrip encodes fuzz-chosen values with Writer and decodes
// them with Reader: the round trip must be lossless and Finish must report
// clean consumption.
func FuzzReaderRoundTrip(f *testing.F) {
	f.Add(uint64(0), true, []byte(nil), "")
	f.Add(uint64(1<<63), false, []byte{1, 2, 3}, "hello")
	f.Add(uint64(300), true, bytes.Repeat([]byte{0xAA}, 200), "varint boundary")
	f.Fuzz(func(t *testing.T, u uint64, b bool, blob []byte, s string) {
		w := NewWriter(32 + len(blob) + len(s))
		w.WriteUvarint(u)
		w.WriteBool(b)
		w.WriteBytes(blob)
		w.WriteString(s)
		enc := w.Bytes()

		r := NewReader(enc)
		if got := r.ReadUvarint(); got != u {
			t.Fatalf("uvarint: %d != %d", got, u)
		}
		if got := r.ReadBool(); got != b {
			t.Fatalf("bool: %v != %v", got, b)
		}
		if got := r.ReadBytes(); !bytes.Equal(got, blob) {
			t.Fatalf("bytes: %x != %x", got, blob)
		}
		if got := r.ReadString(); got != s {
			t.Fatalf("string: %q != %q", got, s)
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}

		// Every strict prefix must fail — the encoding carries no padding.
		for cut := 0; cut < len(enc); cut++ {
			pr := NewReader(enc[:cut])
			pr.ReadUvarint()
			pr.ReadBool()
			pr.ReadBytes()
			pr.ReadString()
			if pr.Err() == nil && pr.Finish() == nil {
				t.Fatalf("prefix %d/%d decoded cleanly", cut, len(enc))
			}
		}
	})
}

// FuzzReaderHostile runs the full read API over arbitrary bytes: no input
// may panic, out-of-input reads must yield zero values with a sticky error,
// and no returned slice may exceed the input length (the allocation bound).
func FuzzReaderHostile(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x80}) // incomplete varint
	f.Add(binary.AppendUvarint(nil, 1<<60))
	f.Add(append(binary.AppendUvarint(nil, 5), 1, 2, 3, 4, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		if b := r.ReadBytes(); len(b) > len(data) {
			t.Fatalf("ReadBytes returned %d bytes from %d input", len(b), len(data))
		}
		if b := r.ReadBytesMax(16); len(b) > 16 {
			t.Fatalf("ReadBytesMax(16) returned %d bytes", len(b))
		}
		r.ReadUvarint()
		r.ReadBool()
		r.ReadHash()
		r.ReadAddress()
		r.ReadWord()
		if n := r.CapCount(r.ReadUvarint(), 8); n > len(data) {
			t.Fatalf("CapCount %d exceeds input %d", n, len(data))
		}
		if r.Remaining() > len(data) {
			t.Fatalf("Remaining %d exceeds input %d", r.Remaining(), len(data))
		}
		_ = r.Finish()
	})
}
