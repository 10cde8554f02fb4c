package trees_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"scmove/internal/trees"
	"scmove/internal/trie"
)

func benchTree(b *testing.B, kind trie.Kind, size int) trie.Tree {
	b.Helper()
	t := trees.MustNew(kind, 8)
	for i := 0; i < size; i++ {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], uint64(i)*2654435761)
		if err := t.Set(k[:], []byte(fmt.Sprintf("value-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	t.RootHash() // settle hash caches
	return t
}

func forKinds(b *testing.B, fn func(b *testing.B, kind trie.Kind)) {
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		b.Run(kind.String(), func(b *testing.B) { fn(b, kind) })
	}
}

func BenchmarkTreeSet(b *testing.B) {
	forKinds(b, func(b *testing.B, kind trie.Kind) {
		t := benchTree(b, kind, 10_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], uint64(i))
			if err := t.Set(k[:], []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTreeGet(b *testing.B) {
	forKinds(b, func(b *testing.B, kind trie.Kind) {
		t := benchTree(b, kind, 10_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], uint64(i%10_000)*2654435761)
			t.Get(k[:])
		}
	})
}

func BenchmarkTreeRootAfterWrite(b *testing.B) {
	forKinds(b, func(b *testing.B, kind trie.Kind) {
		t := benchTree(b, kind, 10_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], uint64(i%10_000)*2654435761)
			if err := t.Set(k[:], []byte{byte(i), 1}); err != nil {
				b.Fatal(err)
			}
			t.RootHash()
		}
	})
}

func BenchmarkTreeProve(b *testing.B) {
	forKinds(b, func(b *testing.B, kind trie.Kind) {
		t := benchTree(b, kind, 10_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], uint64(i%10_000)*2654435761)
			if _, err := t.Prove(k[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkProofVerify(b *testing.B) {
	forKinds(b, func(b *testing.B, kind trie.Kind) {
		t := benchTree(b, kind, 10_000)
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], 42*2654435761)
		proof, err := t.Prove(k[:])
		if err != nil {
			b.Fatal(err)
		}
		root := t.RootHash()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := trees.VerifyProof(kind, root, proof); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRebuild1000 compares the three ways to get from a sorted run of
// 1000 storage slots to its root: a Set loop (what every rebuild used to
// be), Build + RootHash (a tree that stays), RootOf (a completeness check).
func BenchmarkRebuild1000(b *testing.B) {
	forKinds(b, func(b *testing.B, kind trie.Kind) {
		keys := make([][32]byte, 1000)
		for i := range keys {
			binary.BigEndian.PutUint64(keys[i][24:], uint64(i+1))
		}
		at := func(i int) ([]byte, []byte) { return keys[i][:], keys[(i+7)%len(keys)][:] }
		b.Run("set-loop", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := trees.MustNew(kind, 32)
				for j := range keys {
					k, v := at(j)
					if err := tr.Set(k, v); err != nil {
						b.Fatal(err)
					}
				}
				tr.RootHash()
			}
		})
		b.Run("build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := trees.Build(nil, kind, 32, len(keys), at)
				if err != nil {
					b.Fatal(err)
				}
				tr.RootHash()
			}
		})
		b.Run("root-of", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trees.RootOf(kind, 32, len(keys), at); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
