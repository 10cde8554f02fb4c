// Package keys implements account key pairs and transaction signatures.
//
// The paper's clients hold one asymmetric key pair per account (§II). This
// reproduction uses ECDSA over P-256 from the standard library in place of
// secp256k1; the signature workflow (sign a transaction hash, verify proof
// of account ownership) is identical. Nonces are RFC 6979's, as in Ethereum
// clients, so a signature is a pure function of (key, digest).
package keys

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"scmove/internal/hashing"
)

// Errors returned by signature verification.
var (
	ErrBadSignature = errors.New("keys: signature verification failed")
	ErrShortKey     = errors.New("keys: malformed public key encoding")
)

// KeyPair is an account key pair. The zero value is unusable; construct
// with Generate or Deterministic.
type KeyPair struct {
	priv *ecdsa.PrivateKey
	pub  []byte // encoded public key, computed once
	addr hashing.Address
}

// Generate creates a new key pair from crypto/rand.
func Generate() (*KeyPair, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate key: %w", err)
	}
	return fromPriv(priv), nil
}

// Deterministic creates a key pair derived from a seed. Simulations use this
// to create reproducible client populations; it must not be used for real
// funds. The private scalar is H(seed) reduced into [1, N-1], which is
// deterministic regardless of how the standard library samples keys.
func Deterministic(seed uint64) *KeyPair {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	digest := sha256.Sum256(buf[:])

	curve := elliptic.P256()
	nMinusOne := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	d := new(big.Int).SetBytes(digest[:])
	d.Mod(d, nMinusOne)
	d.Add(d, big.NewInt(1)) // d ∈ [1, N-1]

	priv := &ecdsa.PrivateKey{D: d}
	priv.Curve = curve
	priv.X, priv.Y = curve.ScalarBaseMult(d.Bytes())
	return fromPriv(priv)
}

func fromPriv(priv *ecdsa.PrivateKey) *KeyPair {
	pub := encodePub(&priv.PublicKey)
	return &KeyPair{
		priv: priv,
		pub:  pub,
		addr: hashing.AccountAddress(pub),
	}
}

// Address returns the account identifier derived from the public key. The
// same key pair yields the same address on every chain (§III-G(a)).
func (k *KeyPair) Address() hashing.Address { return k.addr }

// PublicKey returns the encoded public key. The returned slice is shared;
// callers must not mutate it.
func (k *KeyPair) PublicKey() []byte { return k.pub }

// Sign signs digest (a SHA-256 output) and returns a signature that carries
// the public key, so verifiers can both check the signature and derive the
// signer's address.
//
// The nonce is RFC 6979's deterministic one, derived from the key and the
// digest: signing the same digest twice yields the same bytes, and no
// randomness is read. That skips the hedged nonce's crypto/rand read and
// SHA-512 DRBG, which cost a fifth of every signature. A nil rand selects
// RFC 6979 in the standard library since Go 1.24, the toolchain this module
// is built with; TestSignRFC6979KnownAnswer pins it.
func (k *KeyPair) Sign(digest hashing.Hash) (Signature, error) {
	der, err := k.priv.Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		return Signature{}, fmt.Errorf("sign: %w", err)
	}
	r, s, ok := splitDER(der)
	if !ok {
		return Signature{}, errors.New("sign: malformed DER signature")
	}
	return Signature{PubKey: k.PublicKey(), R: r, S: s}, nil
}

// splitDER splits an ASN.1 DER ECDSA signature, SEQUENCE { INTEGER r,
// INTEGER s }, into the minimal big-endian encodings of r and s — what
// big.Int.Bytes returns, so Signature's fields keep their historical form.
// A P-256 signature is at most 72 bytes, so every DER length is one byte.
// The results alias der, capped so appending to one cannot overwrite the
// other.
func splitDER(der []byte) (r, s []byte, ok bool) {
	if len(der) < 2 || der[0] != 0x30 || der[1] >= 0x80 || int(der[1]) != len(der)-2 {
		return nil, nil, false
	}
	rest := der[2:]
	if r, rest, ok = derInt(rest); !ok {
		return nil, nil, false
	}
	if s, rest, ok = derInt(rest); !ok || len(rest) != 0 {
		return nil, nil, false
	}
	return r, s, true
}

// derInt reads one short-form DER INTEGER from b and strips the sign byte.
func derInt(b []byte) (v, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != 0x02 || b[1] >= 0x80 || int(b[1]) > len(b)-2 {
		return nil, nil, false
	}
	end := 2 + int(b[1])
	v = b[2:end:end]
	for len(v) > 0 && v[0] == 0 {
		v = v[1:]
	}
	return v, b[end:], true
}

// Signature is a transaction signature together with the signing public key.
type Signature struct {
	PubKey []byte
	R, S   []byte
}

// Verify checks the signature over digest and returns the signer address.
// The key's decoding comes from a process-wide memo (see pubMemo); the
// signature itself is checked on every call.
func (sig Signature) Verify(digest hashing.Hash) (hashing.Address, error) {
	k, err := decodePub(sig.PubKey)
	if err != nil {
		return hashing.Address{}, err
	}
	return k.verify(digest, sig.R, sig.S)
}

func encodePub(pub *ecdsa.PublicKey) []byte {
	return elliptic.MarshalCompressed(elliptic.P256(), pub.X, pub.Y)
}
