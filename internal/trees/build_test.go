package trees_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"scmove/internal/trees"
	"scmove/internal/trie"
)

type entry struct{ k, v []byte }

// run is a strictly ascending sequence of entries, the input of Build.
type run []entry

func (r run) at(i int) (key, value []byte) { return r[i].k, r[i].v }

// sortedRun sorts entries by key and drops all but the last entry of each
// key, which is what a Set loop over them leaves in a tree.
func sortedRun(entries []entry) run {
	sort.SliceStable(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
	var out run
	for i, e := range entries {
		if i+1 < len(entries) && bytes.Equal(entries[i+1].k, e.k) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// randomRun draws n distinct keys; about a quarter of them differ from
// another key in the last nibble only, the deepest split a trie can make.
// valueLen 0 draws variable-length values (account records), otherwise
// every value has that length (storage words).
func randomRun(rng *rand.Rand, n, keyLen, valueLen int) run {
	seen := make(map[string]bool, n)
	entries := make([]entry, 0, n)
	for len(entries) < n {
		k := make([]byte, keyLen)
		if len(entries) > 0 && rng.Intn(4) == 0 {
			copy(k, entries[rng.Intn(len(entries))].k)
			k[keyLen-1] = k[keyLen-1]&0xf0 | byte(rng.Intn(16))
		} else {
			rng.Read(k)
		}
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		vl := valueLen
		if vl == 0 {
			vl = 1 + rng.Intn(120)
		}
		v := make([]byte, vl)
		rng.Read(v)
		entries = append(entries, entry{k, v})
	}
	return sortedRun(entries)
}

// incremental builds the reference tree: one Set per entry, in random order.
func incremental(t testing.TB, rng *rand.Rand, kind trie.Kind, keyLen int, r run) trie.Tree {
	t.Helper()
	tr := trees.MustNew(kind, keyLen)
	for _, i := range rng.Perm(len(r)) {
		if err := tr.Set(r[i].k, r[i].v); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// requireSameTree compares everything a tree shows: root, length, iteration
// order and contents, and the bytes of every membership proof.
func requireSameTree(t testing.TB, kind trie.Kind, got, want trie.Tree) {
	t.Helper()
	if g, w := got.RootHash(), want.RootHash(); g != w {
		t.Fatalf("root %s, want %s", g, w)
	}
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	var wantEntries run
	want.Iterate(func(k, v []byte) bool {
		wantEntries = append(wantEntries, entry{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	i := 0
	got.Iterate(func(k, v []byte) bool {
		if i >= len(wantEntries) || !bytes.Equal(k, wantEntries[i].k) || !bytes.Equal(v, wantEntries[i].v) {
			t.Fatalf("Iterate entry %d: %x=%x", i, k, v)
		}
		i++
		return true
	})
	if i != len(wantEntries) {
		t.Fatalf("Iterate visited %d entries, want %d", i, len(wantEntries))
	}
	root := want.RootHash()
	for _, e := range wantEntries {
		if v, ok := got.Get(e.k); !ok || !bytes.Equal(v, e.v) {
			t.Fatalf("Get(%x) = %x, %v", e.k, v, ok)
		}
		gp, err := got.Prove(e.k)
		if err != nil {
			t.Fatalf("Prove(%x): %v", e.k, err)
		}
		wp, err := want.Prove(e.k)
		if err != nil {
			t.Fatalf("reference Prove(%x): %v", e.k, err)
		}
		if !bytes.Equal(gp, wp) {
			t.Fatalf("Prove(%x) differs from the incremental tree's", e.k)
		}
		if pe, err := trees.VerifyProof(kind, root, gp); err != nil || !bytes.Equal(pe.Value, e.v) {
			t.Fatalf("VerifyProof(%x): %v", e.k, err)
		}
	}
}

// treeShapes are the two uses of a state tree: 32-byte storage words under
// 32-byte keys, and variable-length account records under 20-byte addresses.
var treeShapes = []struct {
	name             string
	keyLen, valueLen int
}{
	{"storage", 32, 32},
	{"accounts", 20, 0},
}

// TestBuildMatchesIncremental is the differential property test of the bulk
// constructors: Build is indistinguishable from a Set loop, stays so under
// further writes, and RootOf agrees with both.
func TestBuildMatchesIncremental(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind trie.Kind) {
		for _, shape := range treeShapes {
			for _, n := range []int{0, 1, 2, 17, 1000} {
				t.Run(fmt.Sprintf("%s/%d", shape.name, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)*31 + int64(shape.keyLen)))
					r := randomRun(rng, n, shape.keyLen, shape.valueLen)
					built, err := trees.Build(nil, kind, shape.keyLen, len(r), r.at)
					if err != nil {
						t.Fatal(err)
					}
					ref := incremental(t, rng, kind, shape.keyLen, r)
					streamed, err := trees.RootOf(kind, shape.keyLen, len(r), r.at)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.RootHash(); streamed != want {
						t.Fatalf("RootOf %s, incremental root %s", streamed, want)
					}
					requireSameTree(t, kind, built, ref)

					// The run's buffers are the caller's: the tree must
					// have copied what it keeps.
					for _, e := range r {
						e.k[0] ^= 0xff
						e.v[0] ^= 0xff
					}
					requireSameTree(t, kind, built, ref)
					for _, e := range r {
						e.k[0] ^= 0xff
						e.v[0] ^= 0xff
					}

					// A built tree is an ordinary tree: the same script of
					// overwrites, inserts and deletes keeps the two equal.
					extra := randomRun(rng, 40, shape.keyLen, shape.valueLen)
					for op := 0; op < 300; op++ {
						pool := r
						if len(r) == 0 || rng.Intn(3) == 0 {
							pool = extra
						}
						k := pool[rng.Intn(len(pool))].k
						if rng.Intn(3) == 0 {
							if err := built.Delete(k); err != nil {
								t.Fatal(err)
							}
							if err := ref.Delete(k); err != nil {
								t.Fatal(err)
							}
						} else {
							v := make([]byte, 1+rng.Intn(40))
							rng.Read(v)
							if err := built.Set(k, v); err != nil {
								t.Fatal(err)
							}
							if err := ref.Set(k, v); err != nil {
								t.Fatal(err)
							}
						}
						if op%50 == 0 && built.RootHash() != ref.RootHash() {
							t.Fatalf("op %d: roots diverge", op)
						}
					}
					requireSameTree(t, kind, built, ref)
				})
			}
		}
	})
}

// TestBuildRefusesBadRuns: the constructors rely on the run's order, so
// they check it — nothing is built from a run a Set loop would have
// silently reordered, deduplicated or panicked on.
func TestBuildRefusesBadRuns(t *testing.T) {
	good := run{{key(1), val("a")}, {key(2), val("b")}, {key(3), val("c")}}
	cases := []struct {
		name string
		r    run
		want error
	}{
		{"descending", run{good[0], good[2], good[1]}, trie.ErrRunOrder},
		{"duplicate", run{good[0], good[1], good[1]}, trie.ErrRunOrder},
		{"short key", run{good[0], {key(2)[:7], val("b")}}, trie.ErrKeyLength},
		{"long key", run{{append(key(0), 0), val("b")}, good[0]}, trie.ErrKeyLength},
		{"empty value", run{good[0], {key(2), nil}}, trie.ErrEmptyValue},
	}
	forEachKind(t, func(t *testing.T, kind trie.Kind) {
		if _, err := trees.Build(nil, kind, testKeyLen, len(good), good.at); err != nil {
			t.Fatalf("good run refused: %v", err)
		}
		for _, c := range cases {
			if tr, err := trees.Build(nil, kind, testKeyLen, len(c.r), c.r.at); !errors.Is(err, c.want) || tr != nil {
				t.Errorf("Build(%s): tree %v, error %v, want %v", c.name, tr, err, c.want)
			}
			if root, err := trees.RootOf(kind, testKeyLen, len(c.r), c.r.at); !errors.Is(err, c.want) || !root.IsZero() {
				t.Errorf("RootOf(%s): root %s, error %v, want %v", c.name, root, err, c.want)
			}
		}
	})
	if _, err := trees.Build(nil, trie.Kind(99), testKeyLen, 0, good.at); err == nil {
		t.Error("Build of an unknown kind must error")
	}
	if _, err := trees.RootOf(trie.Kind(99), testKeyLen, 0, good.at); err == nil {
		t.Error("RootOf of an unknown kind must error")
	}
}

// TestBuildAllocsAreConstant pins what makes the bulk path worth having:
// the streaming root allocates nothing that grows with the run, a built
// tree is a handful of slabs, and reads on it stay allocation-free.
func TestBuildAllocsAreConstant(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind trie.Kind) {
		r := randomRun(rand.New(rand.NewSource(5)), 1000, 32, 32)
		if a := testing.AllocsPerRun(20, func() {
			if _, err := trees.RootOf(kind, 32, len(r), r.at); err != nil {
				t.Fatal(err)
			}
		}); a > 8 {
			t.Errorf("RootOf over 1000 entries allocates %.0f objects, want <= 8", a)
		}
		var built trie.Tree
		if a := testing.AllocsPerRun(20, func() {
			var err error
			if built, err = trees.Build(nil, kind, 32, len(r), r.at); err != nil {
				t.Fatal(err)
			}
		}); a > 16 {
			t.Errorf("Build of 1000 entries allocates %.0f objects, want <= 16", a)
		}
		if a := testing.AllocsPerRun(20, func() { built.RootHash() }); a != 0 {
			t.Errorf("RootHash of a built tree allocates %.0f objects, want 0", a)
		}
		probe := r[len(r)/2].k
		if a := testing.AllocsPerRun(200, func() { built.Get(probe) }); a != 0 {
			t.Errorf("Get on a built tree allocates %.0f objects, want 0", a)
		}
	})
}

// FuzzBuildVsIncremental cuts the input into 3-byte keys — short, so that
// duplicates, shared prefixes and last-nibble neighbours are common — each
// followed by a length byte and that many value bytes, and requires both
// kinds to build what a Set loop builds.
func FuzzBuildVsIncremental(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 1, 0xaa})
	f.Add([]byte{1, 2, 3, 1, 0xaa, 1, 2, 4, 2, 0xbb, 0xcc, 1, 2, 3, 1, 0xdd})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 3, 1, 2, 3, 0x80, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const keyLen = 3
		var entries []entry
		for len(data) > keyLen {
			k, vl := data[:keyLen], 1+int(data[keyLen])%8
			data = data[keyLen+1:]
			v := make([]byte, vl)
			copy(v, data)
			data = data[min(vl, len(data)):]
			entries = append(entries, entry{k, v})
		}
		r := sortedRun(entries)
		rng := rand.New(rand.NewSource(int64(len(r))))
		for _, kind := range kinds {
			built, err := trees.Build(nil, kind, keyLen, len(r), r.at)
			if err != nil {
				t.Fatal(err)
			}
			ref := incremental(t, rng, kind, keyLen, r)
			requireSameTree(t, kind, built, ref)
			if root, err := trees.RootOf(kind, keyLen, len(r), r.at); err != nil || root != ref.RootHash() {
				t.Fatalf("%s: RootOf %s (%v), want %s", kind, root, err, ref.RootHash())
			}
		}
	})
}
