package keys

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"encoding/binary"
	"math/big"
	"sync/atomic"

	"scmove/internal/hashing"
)

// pubKeyLen is the length of a compressed P-256 public key: a 0x02 or 0x03
// prefix and the 32-byte x coordinate. Every other length fails to decode.
const pubKeyLen = 33

// memoSlots bounds the decoded-key memo: it never holds more entries than
// this, whatever the number of distinct keys a process sees.
const memoSlots = 1 << 12

// decodedKey is one successful decoding of a compressed public key: the
// curve point and the account address the encoding hashes to. It is
// immutable once built, so goroutines share it without locking.
type decodedKey struct {
	enc  [pubKeyLen]byte
	pub  ecdsa.PublicKey
	addr hashing.Address
}

// pubMemo memoizes decodePub. Admission verifies every transaction it
// receives, and the same few senders sign nearly all of them, so decoding
// the sender's key again — a modular square root to recover y, then the
// address hash — is a tenth of each verification spent on a pure function
// of 33 bytes.
//
// The table is direct-mapped on the low bits of x, which are uniform for
// real keys: a hit is one atomic load and a 33-byte compare, allocates
// nothing and writes no shared memory; a miss decodes and overwrites its
// slot, so the memo is bounded without a lock, a copy or a clearing pass.
// Two hot keys that share a slot evict each other and pay the decode, which
// is the cost without a memo. Only encodings that decoded are stored, and
// the memo skips nothing but the decoding: Verify still checks the ECDSA
// equation on every call, so a key seen before makes no signature valid.
var pubMemo [memoSlots]atomic.Pointer[decodedKey]

// memoSlot returns the slot a 33-byte encoding maps to.
func memoSlot(enc []byte) *atomic.Pointer[decodedKey] {
	return &pubMemo[binary.LittleEndian.Uint16(enc[pubKeyLen-2:])%memoSlots]
}

// decodePub returns the decoding of a compressed public key, from the memo
// when it holds enc and by decodeFresh otherwise. It fails with ErrShortKey
// exactly when elliptic.UnmarshalCompressed does.
func decodePub(enc []byte) (*decodedKey, error) {
	if len(enc) != pubKeyLen {
		return nil, ErrShortKey
	}
	slot := memoSlot(enc)
	if k := slot.Load(); k != nil && k.enc == [pubKeyLen]byte(enc) {
		return k, nil
	}
	k, err := decodeFresh(enc)
	if err != nil {
		return nil, err
	}
	slot.Store(k)
	return k, nil
}

// decodeFresh decodes enc without consulting the memo.
func decodeFresh(enc []byte) (*decodedKey, error) {
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), enc)
	if x == nil {
		return nil, ErrShortKey
	}
	k := &decodedKey{
		pub:  ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y},
		addr: hashing.AccountAddress(enc),
	}
	copy(k.enc[:], enc)
	return k, nil
}

// verify checks the signature (r, s) over digest against k and returns the
// signer address.
func (k *decodedKey) verify(digest hashing.Hash, r, s []byte) (hashing.Address, error) {
	if !ecdsa.Verify(&k.pub, digest[:], new(big.Int).SetBytes(r), new(big.Int).SetBytes(s)) {
		return hashing.Address{}, ErrBadSignature
	}
	return k.addr, nil
}
