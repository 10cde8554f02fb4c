package evm

import (
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// Word is a 32-byte storage key or value.
type Word = [32]byte

// StorageEntry is one storage key-value pair of a contract. The state
// database lists a contract's storage as a key-ordered slice of them, and a
// Move2 payload carries that very slice (paper Alg. 1, the state payload V).
type StorageEntry struct {
	Key   Word
	Value Word
}

// Log is an event emitted by contract execution (LOG0-LOG4 or a native
// contract's Emit). Receipts aggregate the logs of a transaction.
type Log struct {
	Address hashing.Address
	Topics  []hashing.Hash
	Data    []byte
}

// StateAccess is the mutable world state as seen by the interpreter. It is
// implemented by the journaled StateDB in internal/state; tests use a
// lightweight in-memory fake.
//
// Location (the paper's Lc field, §III-C) is carried per account: contracts
// whose location differs from the executing chain are locked — readable but
// not writable. The interpreter enforces the lock; StateAccess only stores
// the field.
type StateAccess interface {
	// Exists reports whether the account has ever been touched (has code,
	// balance, nonce, storage, or an explicit location).
	Exists(addr hashing.Address) bool

	// CreateContract initializes addr as a contract with the given code and
	// the executing chain as its location. It fails the caller's invariants
	// if addr already has code; the interpreter checks for collisions first.
	CreateContract(addr hashing.Address, code []byte)

	GetBalance(addr hashing.Address) u256.Int
	AddBalance(addr hashing.Address, amount u256.Int)
	SubBalance(addr hashing.Address, amount u256.Int)

	GetNonce(addr hashing.Address) uint64
	SetNonce(addr hashing.Address, nonce uint64)

	GetCode(addr hashing.Address) []byte
	GetCodeHash(addr hashing.Address) hashing.Hash

	GetStorage(addr hashing.Address, key Word) Word
	// SetStorage stores value under key; storing the zero word deletes the
	// entry (EVM semantics).
	SetStorage(addr hashing.Address, key, value Word)

	// GetLocation returns the chain the account currently resides on. For
	// accounts created locally this is the local chain id.
	GetLocation(addr hashing.Address) hashing.ChainID
	// SetLocation updates the account's location field Lc.
	SetLocation(addr hashing.Address, chain hashing.ChainID)

	// GetMoveNonce returns the account's move nonce, incremented on every
	// successful Move1/Move2 (replay protection, paper Fig. 2).
	GetMoveNonce(addr hashing.Address) uint64
	SetMoveNonce(addr hashing.Address, nonce uint64)

	// DeleteAccount removes the account entirely (SELFDESTRUCT and stale
	// state pruning, paper §III-G(c)).
	DeleteAccount(addr hashing.Address)

	// Snapshot returns an identifier for the current state revision;
	// RevertToSnapshot rolls back every change made since.
	Snapshot() int
	RevertToSnapshot(id int)

	// AddLog records an emitted event; logs are rolled back with snapshots.
	AddLog(log *Log)
}

// BlockContext is the immutable per-block execution environment.
type BlockContext struct {
	ChainID    hashing.ChainID
	Number     uint64
	Time       uint64 // unix seconds, simulated clock
	Coinbase   hashing.Address
	GasLimit   uint64
	Difficulty u256.Int
	// BlockHash returns the hash of a recent block by number (BLOCKHASH).
	BlockHash func(number uint64) hashing.Hash
}

// TxContext is the immutable per-transaction environment.
type TxContext struct {
	Origin   hashing.Address
	GasPrice u256.Int
}
