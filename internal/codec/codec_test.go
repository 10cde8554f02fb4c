package codec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"scmove/internal/hashing"
)

func TestRoundTripAllTypes(t *testing.T) {
	w := NewWriter(64)
	w.WriteUvarint(300)
	w.WriteUint64(1 << 40)
	w.WriteBool(true)
	w.WriteBool(false)
	w.WriteBytes([]byte{1, 2, 3})
	w.WriteString("hello")
	h := hashing.Sum([]byte("h"))
	w.WriteHash(h)
	var a hashing.Address
	a[0] = 0xaa
	w.WriteAddress(a)
	var word [32]byte
	word[31] = 7
	w.WriteWord(word)

	r := NewReader(w.Bytes())
	if got := r.ReadUvarint(); got != 300 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.ReadUint64(); got != 1<<40 {
		t.Errorf("uint64 = %d", got)
	}
	if !r.ReadBool() || r.ReadBool() {
		t.Error("bool round-trip failed")
	}
	if got := r.ReadBytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %x", got)
	}
	if got := r.ReadString(); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if got := r.ReadHash(); got != h {
		t.Errorf("hash = %s", got)
	}
	if got := r.ReadAddress(); got != a {
		t.Errorf("address = %s", got)
	}
	if got := r.ReadWord(); got != word {
		t.Errorf("word = %x", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedInput(t *testing.T) {
	w := NewWriter(8)
	w.WriteUint64(42)
	r := NewReader(w.Bytes()[:4])
	_ = r.ReadUint64()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", r.Err())
	}
}

func TestLengthPrefixOverflow(t *testing.T) {
	// A length prefix claiming more bytes than remain must not panic.
	w := NewWriter(8)
	w.WriteUvarint(1 << 30)
	r := NewReader(w.Bytes())
	if got := r.ReadBytes(); got != nil {
		t.Fatalf("expected nil, got %d bytes", len(got))
	}
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", r.Err())
	}
}

func TestErrorsStick(t *testing.T) {
	r := NewReader(nil)
	_ = r.ReadUint64() // fails
	_ = r.ReadBool()   // must stay failed, return zero
	if r.Err() == nil {
		t.Fatal("error must stick")
	}
}

func TestFinishDetectsTrailingBytes(t *testing.T) {
	w := NewWriter(4)
	w.WriteBool(true)
	w.WriteBool(true)
	r := NewReader(w.Bytes())
	_ = r.ReadBool()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish must reject trailing bytes")
	}
}

func TestReadBytesReturnsCopy(t *testing.T) {
	w := NewWriter(8)
	w.WriteBytes([]byte{9, 9, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.ReadBytes()
	buf[1] = 0 // mutate underlying buffer
	if got[0] != 9 {
		t.Fatal("ReadBytes must return an independent copy")
	}
}

// TestPropertyBytesRoundTrip also holds SizeBytes to what WriteBytes writes
// and ReadBytesView to ReadBytes, reading each string in place.
func TestPropertyBytesRoundTrip(t *testing.T) {
	f := func(chunks [][]byte) bool {
		w := NewWriter(64)
		for _, c := range chunks {
			before := w.Len()
			w.WriteBytes(c)
			if w.Len()-before != SizeBytes(len(c)) {
				return false
			}
		}
		enc := w.Bytes()
		r, view := NewReader(enc), NewReader(enc)
		for _, c := range chunks {
			got := r.ReadBytes()
			if len(got) != len(c) || (len(c) > 0 && !bytes.Equal(got, c)) {
				return false
			}
			v := view.ReadBytesView()
			if !bytes.Equal(v, c) || len(v) > 0 && &v[0] != &enc[view.off-len(v)] {
				return false
			}
		}
		return r.Finish() == nil && view.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUvarintRoundTrip(t *testing.T) {
	f := func(vs []uint64) bool {
		w := NewWriter(64)
		for _, v := range vs {
			before := w.Len()
			w.WriteUvarint(v)
			if w.Len()-before != SizeUvarint(v) {
				return false
			}
		}
		r := NewReader(w.Bytes())
		for _, v := range vs {
			if r.ReadUvarint() != v {
				return false
			}
		}
		return r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Random draws are almost all ten bytes long; pin every length boundary.
	var edges []uint64
	for shift := 0; shift < 64; shift += 7 {
		edges = append(edges, 1<<shift-1, 1<<shift)
	}
	if !f(append(edges, 1<<64-1)) {
		t.Fatal("SizeUvarint disagrees with WriteUvarint at a length boundary")
	}
}
