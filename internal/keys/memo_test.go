package keys

import (
	"crypto/elliptic"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"scmove/internal/hashing"
)

// memoSeedBase keeps each test's Deterministic keys apart from every other
// test's, so a key a test calls fresh has not been memoized by another.
const memoSeedBase = 1 << 40

// memoSnapshot returns the entry of every slot.
func memoSnapshot() []*decodedKey {
	out := make([]*decodedKey, memoSlots)
	for i := range pubMemo {
		out[i] = pubMemo[i].Load()
	}
	return out
}

// memoHolds reports whether the memo holds an entry for enc.
func memoHolds(enc []byte) bool {
	for i := range pubMemo {
		if k := pubMemo[i].Load(); k != nil && string(k.enc[:]) == string(enc) {
			return true
		}
	}
	return false
}

// sameDecoding fails t unless k decodes enc exactly as decodeFresh does.
func sameDecoding(t *testing.T, k *decodedKey, enc []byte) {
	t.Helper()
	want, err := decodeFresh(enc)
	if err != nil {
		t.Fatalf("decodeFresh(%X): %v", enc, err)
	}
	if k.enc != want.enc || k.pub.X.Cmp(want.pub.X) != 0 || k.pub.Y.Cmp(want.pub.Y) != 0 ||
		k.pub.Curve != want.pub.Curve || k.addr != want.addr {
		t.Fatalf("memoized decoding of %X differs from a fresh one", enc)
	}
}

// offCurveKey returns a 33-byte encoding whose x has no point on P-256.
func offCurveKey(t *testing.T) []byte {
	t.Helper()
	enc := make([]byte, pubKeyLen)
	enc[0] = 0x02
	for x := 1; x < 1<<16; x++ {
		enc[pubKeyLen-2], enc[pubKeyLen-1] = byte(x>>8), byte(x)
		if px, _ := elliptic.UnmarshalCompressed(elliptic.P256(), enc); px == nil {
			return enc
		}
	}
	t.Fatal("no off-curve x below 2^16")
	return nil
}

func TestMemoHitMatchesFreshDecode(t *testing.T) {
	for i := uint64(0); i < 300; i++ {
		kp := Deterministic(memoSeedBase + i)
		first, err := decodePub(kp.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		hit, err := decodePub(kp.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		if hit != first {
			t.Fatalf("key %d: second decode was not served by the memo", i)
		}
		sameDecoding(t, hit, kp.PublicKey())
		if hit.addr != kp.Address() {
			t.Fatalf("key %d: memoized address %s, want %s", i, hit.addr, kp.Address())
		}
	}
}

func TestMemoRefusesInvalidEncodings(t *testing.T) {
	valid := Deterministic(memoSeedBase + 1000).PublicKey()
	uncompressed := append([]byte{0x04}, valid[1:]...)
	pAsX := elliptic.P256().Params().P.FillBytes(make([]byte, 32))
	cases := map[string][]byte{
		"prefix 0x04":   uncompressed,
		"off-curve x":   offCurveKey(t),
		"x not below p": append([]byte{0x02}, pAsX...),
		"32 bytes":      valid[:pubKeyLen-1],
		"34 bytes":      append(append([]byte{}, valid...), 0),
		"empty":         nil,
	}

	before := memoSnapshot()
	for name, enc := range cases {
		for call := 0; call < 3; call++ {
			if k, err := decodePub(enc); !errors.Is(err, ErrShortKey) || k != nil {
				t.Fatalf("%s, call %d: decodePub = %v, %v; want ErrShortKey", name, call, k, err)
			}
		}
		if memoHolds(enc) {
			t.Fatalf("%s: an encoding that failed to decode was stored", name)
		}
	}
	after := memoSnapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("slot %d changed while only invalid encodings were decoded", i)
		}
	}
}

func TestMemoBounded(t *testing.T) {
	const n = memoSlots + 500
	encs := make([][]byte, n)
	for i := range encs {
		encs[i] = Deterministic(memoSeedBase + 2000 + uint64(i)).PublicKey()
		if _, err := decodePub(encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	entries := 0
	for i, k := range memoSnapshot() {
		if k == nil {
			continue
		}
		entries++
		if memoSlot(k.enc[:]) != &pubMemo[i] {
			t.Fatalf("slot %d holds a key that maps elsewhere", i)
		}
		sameDecoding(t, k, k.enc[:])
	}
	if entries > memoSlots {
		t.Fatalf("memo holds %d entries, bound is %d", entries, memoSlots)
	}
	for _, enc := range encs {
		k, err := decodePub(enc)
		if err != nil {
			t.Fatal(err)
		}
		sameDecoding(t, k, enc)
	}
}

func TestMemoizedKeyStillChecksSignature(t *testing.T) {
	kp := Deterministic(memoSeedBase + 3000)
	digest := hashing.Sum([]byte("memoized"))
	sig, err := kp.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sig.Verify(digest); err != nil {
		t.Fatal(err)
	}
	if !memoHolds(kp.PublicKey()) {
		t.Fatal("a verified key was not memoized")
	}
	if _, err := sig.Verify(hashing.Sum([]byte("tampered"))); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered digest: want ErrBadSignature, got %v", err)
	}
	forged := sig
	forged.S = append([]byte{}, sig.S...)
	forged.S[len(forged.S)-1] ^= 1
	if _, err := forged.Verify(digest); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered S: want ErrBadSignature, got %v", err)
	}
	if addr, err := sig.Verify(digest); err != nil || addr != kp.Address() {
		t.Fatalf("the honest signature after forgeries: %s, %v", addr, err)
	}
}

func TestMemoHitAllocatesNothing(t *testing.T) {
	enc := Deterministic(memoSeedBase + 4000).PublicKey()
	if _, err := decodePub(enc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodePub(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a memo hit allocates %.1f times", allocs)
	}
}

// TestVerifyMemoConcurrentMatchesSerial verifies memoized, fresh and forged
// signatures from GOMAXPROCS goroutines at once and holds every result to
// the one the uncached path computes. Run it with -race.
func TestVerifyMemoConcurrentMatchesSerial(t *testing.T) {
	type item struct {
		digest hashing.Hash
		sig    Signature
	}
	var items []item
	signed := func(seed uint64) item {
		digest := hashing.Sum([]byte(fmt.Sprint(seed)))
		sig, err := Deterministic(memoSeedBase + seed).Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		return item{digest, sig}
	}
	offCurve := offCurveKey(t)
	wrong := hashing.Sum([]byte("wrong digest"))
	for i := uint64(0); i < 24; i++ {
		memoized, fresh := signed(5000+i), signed(6000+i)
		if _, err := memoized.sig.Verify(memoized.digest); err != nil {
			t.Fatal(err)
		}
		badS := memoized.sig
		badS.S = append([]byte{}, badS.S...)
		badS.S[0] ^= 0x40
		items = append(items, memoized, fresh,
			item{wrong, memoized.sig},
			item{wrong, fresh.sig},
			item{memoized.digest, badS},
			item{fresh.digest, Signature{PubKey: memoized.sig.PubKey, R: fresh.sig.R, S: fresh.sig.S}},
			item{fresh.digest, Signature{PubKey: offCurve, R: fresh.sig.R, S: fresh.sig.S}},
		)
	}

	type result struct {
		addr hashing.Address
		err  error
	}
	want := make([]result, len(items))
	for i, it := range items {
		k, err := decodeFresh(it.sig.PubKey)
		if err == nil {
			want[i].addr, err = k.verify(it.digest, it.sig.R, it.sig.S)
		}
		want[i].err = err
	}
	valid := 0
	for _, w := range want {
		if w.err == nil {
			valid++
		}
	}
	if valid != 48 {
		t.Fatalf("mix has %d valid signatures of %d, want 48", valid, len(items))
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]result, len(items))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range items {
				i := (j + w*len(items)/workers) % len(items)
				got[w][i].addr, got[w][i].err = items[i].sig.Verify(items[i].digest)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, r := range got[w] {
			if r != want[i] {
				t.Fatalf("goroutine %d, item %d: (%s, %v), serial (%s, %v)", w, i, r.addr, r.err, want[i].addr, want[i].err)
			}
		}
	}
}

func FuzzDecodePub(f *testing.F) {
	f.Add(Deterministic(1).PublicKey())
	f.Fuzz(func(t *testing.T, enc []byte) {
		x, y := elliptic.UnmarshalCompressed(elliptic.P256(), enc)
		for call := 0; call < 2; call++ {
			k, err := decodePub(enc)
			if x == nil {
				if !errors.Is(err, ErrShortKey) || k != nil {
					t.Fatalf("call %d: decodePub(%X) = %v, %v; UnmarshalCompressed refused it", call, enc, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("call %d: decodePub(%X): %v; UnmarshalCompressed accepted it", call, enc, err)
			}
			if k.pub.X.Cmp(x) != 0 || k.pub.Y.Cmp(y) != 0 || k.addr != hashing.AccountAddress(enc) {
				t.Fatalf("call %d: decodePub(%X) disagrees with UnmarshalCompressed", call, enc)
			}
		}
	})
}

// BenchmarkVerify times one signature verification whose key the memo
// holds (hit) and one that decodes the key afresh (miss).
func BenchmarkVerify(b *testing.B) {
	digest := hashing.Sum([]byte("bench"))
	sig, err := Deterministic(1).Sign(digest)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sig.Verify(digest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k, err := decodeFresh(sig.PubKey)
			if err == nil {
				_, err = k.verify(digest, sig.R, sig.S)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
