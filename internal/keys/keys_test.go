package keys

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"errors"
	"math/big"
	"testing"

	"scmove/internal/hashing"
)

func TestSignVerifyRoundTrip(t *testing.T) {
	kp, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	digest := hashing.Sum([]byte("tx payload"))
	sig, err := kp.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sig.Verify(digest)
	if err != nil {
		t.Fatal(err)
	}
	if addr != kp.Address() {
		t.Fatalf("verified signer %s != key address %s", addr, kp.Address())
	}
}

func TestVerifyRejectsTamperedDigest(t *testing.T) {
	kp := Deterministic(1)
	sig, err := kp.Sign(hashing.Sum([]byte("original")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sig.Verify(hashing.Sum([]byte("tampered"))); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyRejectsSwappedKey(t *testing.T) {
	digest := hashing.Sum([]byte("msg"))
	sig, err := Deterministic(1).Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the embedded public key with another account's: the signature
	// must no longer verify, so an attacker cannot claim another identity.
	sig.PubKey = Deterministic(2).PublicKey()
	if _, err := sig.Verify(digest); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyRejectsGarbageKey(t *testing.T) {
	sig := Signature{PubKey: []byte{1, 2, 3}}
	if _, err := sig.Verify(hashing.Hash{}); !errors.Is(err, ErrShortKey) {
		t.Fatalf("want ErrShortKey, got %v", err)
	}
}

func TestDeterministicIsStable(t *testing.T) {
	a := Deterministic(42)
	b := Deterministic(42)
	if a.Address() != b.Address() {
		t.Fatal("same seed must produce the same key")
	}
	if a.Address() == Deterministic(43).Address() {
		t.Fatal("different seeds must produce different keys")
	}
}

func TestAddressMatchesSignerAddress(t *testing.T) {
	kp := Deterministic(7)
	digest := hashing.Sum([]byte("m"))
	sig, err := kp.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sig.Verify(digest)
	if err != nil {
		t.Fatal(err)
	}
	if addr != kp.Address() {
		t.Fatal("the signer address Verify returns must match the key pair address")
	}
}

// TestSignRFC6979KnownAnswer pins Sign's nonce to RFC 6979 §A.2.5 (P-256,
// SHA-256, message "sample"): the exact (r, s) of the RFC, accepted by
// Verify, and the same bytes on every call.
func TestSignRFC6979KnownAnswer(t *testing.T) {
	hexInt := func(s string) *big.Int {
		v, ok := new(big.Int).SetString(s, 16)
		if !ok {
			t.Fatalf("bad hex %q", s)
		}
		return v
	}
	curve := elliptic.P256()
	priv := &ecdsa.PrivateKey{D: hexInt("C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721")}
	priv.Curve = curve
	priv.X, priv.Y = curve.ScalarBaseMult(priv.D.Bytes())
	kp := fromPriv(priv)
	digest := hashing.Hash(sha256.Sum256([]byte("sample")))

	sig, err := kp.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	wantR := hexInt("EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716").Bytes()
	wantS := hexInt("F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8").Bytes()
	if !bytes.Equal(sig.R, wantR) || !bytes.Equal(sig.S, wantS) {
		t.Fatalf("(r, s) = (%X, %X), want RFC 6979 A.2.5 (%X, %X)", sig.R, sig.S, wantR, wantS)
	}
	if addr, err := sig.Verify(digest); err != nil || addr != kp.Address() {
		t.Fatalf("Verify = %s, %v", addr, err)
	}
	again, err := kp.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.R, sig.R) || !bytes.Equal(again.S, sig.S) {
		t.Fatal("signing one digest twice must give identical bytes")
	}
}

// TestSplitDER pins the DER parsing Sign relies on: sign bytes stripped to
// big.Int.Bytes form, and anything but one short-form SEQUENCE of two
// INTEGERs refused.
func TestSplitDER(t *testing.T) {
	r, s, ok := splitDER([]byte{0x30, 0x07, 0x02, 0x02, 0x00, 0x80, 0x02, 0x01, 0x05})
	if !ok || !bytes.Equal(r, []byte{0x80}) || !bytes.Equal(s, []byte{0x05}) {
		t.Fatalf("splitDER = %X, %X, %v", r, s, ok)
	}
	for _, der := range [][]byte{
		nil,
		{0x31, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01},       // not a SEQUENCE
		{0x30, 0x07, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01},       // length overruns
		{0x30, 0x06, 0x02, 0x01, 0x01, 0x04, 0x01, 0x01},       // s not an INTEGER
		{0x30, 0x06, 0x02, 0x02, 0x01, 0x02, 0x01, 0x01},       // r swallows s's tag
		{0x30, 0x07, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01, 0x00}, // trailing byte
	} {
		if _, _, ok := splitDER(der); ok {
			t.Fatalf("splitDER(%X) accepted malformed input", der)
		}
	}
}

func TestDeterministicKeysSignCorrectly(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		kp := Deterministic(seed)
		digest := hashing.Sum([]byte{byte(seed)})
		sig, err := kp.Sign(digest)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := sig.Verify(digest); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
