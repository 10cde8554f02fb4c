// Package state implements the journaled world state of one blockchain:
// accounts with the Move protocol's location field Lc and move nonce,
// per-account storage trees, content-addressed code, snapshot/revert
// journaling for transaction execution, and commitment into the chain's
// authenticated state tree.
package state

import (
	"fmt"

	"scmove/internal/codec"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// Account is the persistent record of one account or contract.
//
// Location is the paper's Lc field (§III-C): the chain the account currently
// resides on. A contract whose Location differs from the local chain is
// locked — readable, not writable. MoveNonce increments on every Move1 and
// is the replay-protection counter of Fig. 2; the record is kept as a
// tombstone after the contract departs so the high-water mark survives.
type Account struct {
	Nonce       uint64
	Balance     u256.Int
	CodeHash    hashing.Hash
	StorageRoot hashing.Hash
	Location    hashing.ChainID
	MoveNonce   uint64
}

// Encode returns the canonical encoding committed into the account tree and
// carried inside move proofs.
func (a *Account) Encode() []byte {
	return a.appendEncoding(make([]byte, 0, a.encodedSize()))
}

// encodedSize is the length of Encode's result.
func (a *Account) encodedSize() int {
	return codec.SizeUvarint(a.Nonce) + 3*32 +
		codec.SizeUvarint(uint64(a.Location)) + codec.SizeUvarint(a.MoveNonce)
}

// appendEncoding appends Encode's bytes to dst.
func (a *Account) appendEncoding(dst []byte) []byte {
	w := codec.AppendTo(dst)
	w.WriteUvarint(a.Nonce)
	w.WriteWord(a.Balance.Bytes32())
	w.WriteHash(a.CodeHash)
	w.WriteHash(a.StorageRoot)
	w.WriteUvarint(uint64(a.Location))
	w.WriteUvarint(a.MoveNonce)
	return w.Bytes()
}

// DecodeAccount parses an account record encoded with Encode.
func DecodeAccount(b []byte) (Account, error) {
	r := codec.NewReader(b)
	var a Account
	a.Nonce = r.ReadUvarint()
	bal := r.ReadWord()
	a.Balance = u256.FromBytes(bal[:])
	a.CodeHash = r.ReadHash()
	a.StorageRoot = r.ReadHash()
	a.Location = hashing.ChainID(r.ReadUvarint())
	a.MoveNonce = r.ReadUvarint()
	if err := r.Finish(); err != nil {
		return Account{}, fmt.Errorf("decode account: %w", err)
	}
	return a, nil
}

// isEmpty reports whether the record carries no information and can be
// omitted from the state tree.
func (a *Account) isEmpty(localChain hashing.ChainID) bool {
	return a.Nonce == 0 &&
		a.Balance.IsZero() &&
		a.CodeHash.IsZero() &&
		a.StorageRoot.IsZero() &&
		(a.Location == localChain || a.Location == 0) &&
		a.MoveNonce == 0
}
