package bench

import (
	"encoding/binary"
	"fmt"

	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/u256"
)

// StateDBConfig describes a synthetic populated state database for the
// backend benchmark cells and the statesmoke gate: Accounts externally
// owned accounts (hashed addresses, no key generation), the first Contracts
// of which also carry SlotsPerAccount storage slots.
type StateDBConfig struct {
	Accounts        int
	Contracts       int
	SlotsPerAccount int
	// BlockAccounts (positive) is how many accounts are funded per commit
	// during population. Smaller blocks model a chain that grew over many
	// heights and bound the per-commit batch.
	BlockAccounts int
	ChainID       hashing.ChainID
	Kind          trie.Kind
	Options       state.Options
}

// StateBenchAddr returns the i-th synthetic account address — hashed, so
// population needs no ECDSA work and addresses spread across the tree.
func StateBenchAddr(i int) hashing.Address {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(i))
	h := hashing.SumTagged('S', seed[:])
	var a hashing.Address
	copy(a[:], h[:])
	return a
}

// BuildStateDB creates and populates a state database per cfg, returning it
// with everything committed. The caller owns Close.
func BuildStateDB(cfg StateDBConfig) (*state.DB, error) {
	kind := cfg.Kind
	if kind == 0 {
		kind = trie.KindMPT
	}
	chainID := cfg.ChainID
	if chainID == 0 {
		chainID = 1
	}
	db, err := state.NewDBWith(chainID, kind, cfg.Options)
	if err != nil {
		return nil, err
	}
	if err := PopulateStateDB(db, cfg); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// PopulateStateDB funds cfg.Accounts synthetic accounts on db in commit
// blocks of cfg.BlockAccounts, giving the first cfg.Contracts of them
// cfg.SlotsPerAccount storage slots each. Deterministic: the same cfg
// produces the same committed root on every backend.
func PopulateStateDB(db *state.DB, cfg StateDBConfig) error {
	if cfg.Contracts > cfg.Accounts {
		return fmt.Errorf("statebench: %d contracts > %d accounts", cfg.Contracts, cfg.Accounts)
	}
	for i := 0; i < cfg.Accounts; i++ {
		addr := StateBenchAddr(i)
		db.AddBalance(addr, u256.FromUint64(uint64(1_000_000+i)))
		db.SetNonce(addr, uint64(i%7))
		if i < cfg.Contracts {
			for s := 0; s < cfg.SlotsPerAccount; s++ {
				var key, val [32]byte
				binary.BigEndian.PutUint64(key[24:], uint64(s+1))
				binary.BigEndian.PutUint64(val[24:], uint64(i*1000+s+1))
				db.SetStorage(addr, key, val)
			}
		}
		if (i+1)%cfg.BlockAccounts == 0 {
			db.Commit()
		}
	}
	if cfg.Accounts%cfg.BlockAccounts != 0 {
		db.Commit()
	}
	return nil
}

// MutateStateBlock applies one deterministic update block to a populated
// database: balance churn on a stride of accounts and a storage overwrite
// on a stride of contracts, then a commit. Returns the new root.
func MutateStateBlock(db *state.DB, cfg StateDBConfig, round, touches int) hashing.Hash {
	if touches > cfg.Accounts {
		touches = cfg.Accounts
	}
	for t := 0; t < touches; t++ {
		i := (t*7919 + round*104729) % cfg.Accounts
		addr := StateBenchAddr(i)
		db.AddBalance(addr, u256.FromUint64(uint64(round+1)))
		if i < cfg.Contracts && cfg.SlotsPerAccount > 0 {
			var key, val [32]byte
			binary.BigEndian.PutUint64(key[24:], uint64(i%cfg.SlotsPerAccount+1))
			binary.BigEndian.PutUint64(val[24:], uint64(round*1_000_003+t))
			db.SetStorage(addr, key, val)
		}
	}
	return db.Commit()
}
