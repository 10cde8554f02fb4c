package mpt

import (
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"
)

// Allocation-regression tests: the trie sits under every SLOAD/SSTORE of
// the simulator, so its per-op allocation profile is a contract, not an
// accident. testing.AllocsPerRun fails loudly if a future change starts
// allocating on the read path again.

func allocTestTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	tr := New(4)
	for i := 0; i < n; i++ {
		var key [4]byte
		binary.BigEndian.PutUint32(key[:], uint32(i*2654435761))
		if err := tr.Set(key[:], []byte{byte(i), byte(i >> 8), 1}); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// TestGetZeroAlloc pins the headline property of the scratch-buffer work:
// Get on a committed (hashed) tree allocates nothing at all.
func TestGetZeroAlloc(t *testing.T) {
	tr := allocTestTree(t, 512)
	tr.RootHash()
	var key [4]byte
	i := 100
	binary.BigEndian.PutUint32(key[:], uint32(i*2654435761))
	if _, ok := tr.Get(key[:]); !ok {
		t.Fatal("key must be present")
	}
	allocs := testing.AllocsPerRun(200, func() {
		tr.Get(key[:])
	})
	if allocs != 0 {
		t.Fatalf("Get on committed tree allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSetOverwriteAllocsBounded bounds the write path: overwriting an
// existing key copies the value (one allocation) and must not reallocate
// the path nodes or the key nibbles.
func TestSetOverwriteAllocsBounded(t *testing.T) {
	tr := allocTestTree(t, 512)
	tr.RootHash()
	var key [4]byte
	i := 100
	binary.BigEndian.PutUint32(key[:], uint32(i*2654435761))
	val := []byte{9, 9, 9}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Set(key[:], val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Set overwrite allocates %.1f objects/op, want <= 1 (the value copy)", allocs)
	}
}

// TestNodeLayout pins what a node costs: a leaf, the most common node,
// carries no branch's child array.
func TestNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 112 {
		t.Fatalf("node is %d bytes, want <= 112", size)
	}
}

// TestBuildBytes pins what Build keeps of a run of 1000 storage slots laid
// out as a contract lays out its variables (consecutive 32-byte slot keys,
// 32-byte values): the nodes, no child array outside a branch, and of the
// keys only the nibbles the leaves and extensions keep. The same run cost
// 352 304 bytes when every node carried a child array and every key was
// expanded whole.
func TestBuildBytes(t *testing.T) {
	const before = 352_304
	keys := make([][32]byte, 1000)
	for i := range keys {
		binary.BigEndian.PutUint64(keys[i][24:], uint64(i+1))
	}
	at := func(i int) ([]byte, []byte) { return keys[i][:], keys[(i+7)%len(keys)][:] }
	const runs = 20
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	for i := 0; i < runs; i++ {
		if _, err := Build(nil, 32, len(keys), at); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	if got := (ms.TotalAlloc - start) / runs; got > before*60/100 {
		t.Fatalf("Build of 1000 slots allocates %d bytes, want <= %d (60 %% of %d)", got, before*60/100, before)
	}
}
