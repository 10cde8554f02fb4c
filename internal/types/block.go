package types

import (
	"encoding/binary"
	"fmt"

	"scmove/internal/codec"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// Header is a block header. It is a few hundred bytes — the constant-size
// artifact light clients download to verify Merkle proofs of peer chains
// (paper §III-A).
type Header struct {
	ChainID    hashing.ChainID
	Height     uint64
	ParentHash hashing.Hash
	// StateRoot commits to the world state. On the Ethereum-like chain it
	// is the root *after* executing this block; on the Burrow-like chain it
	// is the root after block Height-1, reproducing Tendermint's lagging
	// app-hash rule that forces the two-block wait of §VI.
	StateRoot hashing.Hash
	TxRoot    hashing.Hash
	Time      uint64 // unix seconds, simulated clock
	Proposer  hashing.Address
	GasUsed   uint64
	GasLimit  uint64
	// Difficulty and Nonce are used by the PoW chain; zero on BFT chains.
	Difficulty u256.Int
	Nonce      uint64
}

// Encode returns the canonical header encoding.
func (h *Header) Encode() []byte {
	return h.appendTo(make([]byte, 0, maxHeaderSize))
}

// maxHeaderSize bounds the header encoding: six uvarints, three hashes, an
// address and a word.
const maxHeaderSize = 6*binary.MaxVarintLen64 + 3*hashing.HashSize + hashing.AddressSize + 32

// appendTo appends the header's encoding to b. It writes the slice, not a
// codec.Writer, so that Hash's stack buffer stays on the stack.
func (h *Header) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(h.ChainID))
	b = binary.AppendUvarint(b, h.Height)
	b = append(b, h.ParentHash[:]...)
	b = append(b, h.StateRoot[:]...)
	b = append(b, h.TxRoot[:]...)
	b = binary.AppendUvarint(b, h.Time)
	b = append(b, h.Proposer[:]...)
	b = binary.AppendUvarint(b, h.GasUsed)
	b = binary.AppendUvarint(b, h.GasLimit)
	d := h.Difficulty.Bytes32()
	b = append(b, d[:]...)
	return binary.AppendUvarint(b, h.Nonce)
}

// DecodeHeader parses an encoded header.
func DecodeHeader(b []byte) (*Header, error) {
	r := codec.NewReader(b)
	var h Header
	h.ChainID = hashing.ChainID(r.ReadUvarint())
	h.Height = r.ReadUvarint()
	h.ParentHash = r.ReadHash()
	h.StateRoot = r.ReadHash()
	h.TxRoot = r.ReadHash()
	h.Time = r.ReadUvarint()
	h.Proposer = r.ReadAddress()
	h.GasUsed = r.ReadUvarint()
	h.GasLimit = r.ReadUvarint()
	d := r.ReadWord()
	h.Difficulty = u256.FromBytes(d[:])
	h.Nonce = r.ReadUvarint()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decode header: %w", err)
	}
	return &h, nil
}

// Hash returns the block hash: the hash of Encode's bytes, encoded on the
// stack.
func (h *Header) Hash() hashing.Hash {
	var buf [maxHeaderSize]byte
	return hashing.Sum(h.appendTo(buf[:0]))
}

// Block is a header together with its transaction body.
type Block struct {
	Header *Header
	Txs    []*Transaction
}

// TxRoot computes the commitment over an ordered transaction list: the
// hash of the count and each transaction's id, written into a pooled
// hasher.
func TxRoot(txs []*Transaction) hashing.Hash {
	h := hashing.AcquireHasher()
	h.Uvarint(uint64(len(txs)))
	for _, tx := range txs {
		id := tx.ID()
		h.Write(id[:])
	}
	sum := h.Sum()
	hashing.ReleaseHasher(h)
	return sum
}

// ReceiptStatus reports how a transaction executed.
type ReceiptStatus uint8

const (
	// ReceiptSuccess means the transaction executed without error.
	ReceiptSuccess ReceiptStatus = iota + 1
	// ReceiptFailed means execution aborted (reverted, out of gas, or a
	// protocol rule such as a locked contract); the fee was still charged.
	ReceiptFailed
)

// Receipt records the outcome of one executed transaction.
type Receipt struct {
	TxID    hashing.Hash
	Status  ReceiptStatus
	GasUsed uint64
	Logs    []*evm.Log
	// Created is the deployed contract address for TxCreate.
	Created hashing.Address
	// Err is the human-readable failure reason (empty on success). It is
	// not part of consensus state.
	Err string
}

// Succeeded reports whether the transaction executed without error.
func (r *Receipt) Succeeded() bool { return r.Status == ReceiptSuccess }
