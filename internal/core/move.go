package core

import (
	"bytes"
	"fmt"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/trees"
	"scmove/internal/types"
)

// MoveFinishInput is the calldata with which the chain invokes a contract's
// moveFinish(·) routine at the end of a successful Move2 (Alg. 1 line 13).
// Contracts that do not recognize it simply ignore the call.
var MoveFinishInput = []byte("__move_finish__")

// MoveToInput builds the conventional calldata for a contract's moveTo(·)
// routine: the Move1 transaction of the contract standard library
// (Listing 1). The target chain id is appended big-endian.
func MoveToInput(target hashing.ChainID) []byte {
	return append([]byte("__move_to__"), target.Bytes()...)
}

// ParseMoveToInput recognizes MoveToInput calldata, returning the target.
func ParseMoveToInput(input []byte) (hashing.ChainID, bool) {
	const prefix = "__move_to__"
	if len(input) != len(prefix)+8 || string(input[:len(prefix)]) != prefix {
		return 0, false
	}
	var id uint64
	for _, b := range input[len(prefix):] {
		id = id<<8 | uint64(b)
	}
	return hashing.ChainID(id), true
}

// IsMoveFinishInput recognizes the moveFinish calldata.
func IsMoveFinishInput(input []byte) bool {
	return bytes.Equal(input, MoveFinishInput)
}

// BuildMoveProof assembles the Move2 payload for a locked contract against
// the source chain's *current committed state* — call it right after the
// block containing Move1 commits, while the database root equals that
// block's state root. The contract is locked, so its record and storage
// cannot change afterwards; the proof stays valid against this height's
// root even as other accounts keep changing in later blocks.
func BuildMoveProof(db *state.DB, contract hashing.Address, height uint64) (*types.Move2Payload, error) {
	acct, ok := db.GetAccount(contract)
	if !ok {
		return nil, fmt.Errorf("core: build proof: no account %s", contract)
	}
	if acct.Location == db.ChainID() || acct.Location == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotLocked, contract)
	}
	accountProof, err := db.ProveAccount(contract)
	if err != nil {
		return nil, fmt.Errorf("core: build proof: %w", err)
	}
	return &types.Move2Payload{
		Contract:     contract,
		SourceChain:  db.ChainID(),
		SourceHeight: height,
		AccountProof: accountProof,
		Code:         db.GetCode(contract),
		Storage:      db.StorageEntries(contract),
	}, nil
}

// BuildMoveProofAt assembles the Move2 payload for a locked contract
// against a *past* committed state root, served from the state backend's
// retained-root window. It produces exactly the bytes BuildMoveProof
// produced when root was the head: the account record, its Merkle proof,
// and the storage payload are all rebuilt from the reverse-diff overlay at
// that root, and the code blob is content-addressed (immutable, so the
// current store serves any height). Use it when the proof height has
// already been buried by later blocks — e.g. a relay that must re-prove
// against an older, already-confirmed root instead of waiting for a new
// head to confirm.
func BuildMoveProofAt(db *state.DB, contract hashing.Address, height uint64, root hashing.Hash) (*types.Move2Payload, error) {
	acct, ok, err := db.GetAccountAt(contract, root)
	if err != nil {
		return nil, fmt.Errorf("core: build proof at %d: %w", height, err)
	}
	if !ok {
		return nil, fmt.Errorf("core: build proof at %d: no account %s", height, contract)
	}
	if acct.Location == db.ChainID() || acct.Location == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotLocked, contract)
	}
	accountProof, err := db.ProveAccountAt(contract, root)
	if err != nil {
		return nil, fmt.Errorf("core: build proof at %d: %w", height, err)
	}
	storage, err := db.StorageEntriesAt(contract, root)
	if err != nil {
		return nil, fmt.Errorf("core: build proof at %d: %w", height, err)
	}
	var code []byte
	if !acct.CodeHash.IsZero() {
		code, _ = db.CodeByHash(acct.CodeHash)
	}
	return &types.Move2Payload{
		Contract:     contract,
		SourceChain:  db.ChainID(),
		SourceHeight: height,
		AccountProof: accountProof,
		Code:         code,
		Storage:      storage,
	}, nil
}

// VerifyMove2 checks a Move2 payload on the target chain (Alg. 1 lines
// 5-10 plus the replay and completeness rules of §III-E):
//
//  1. VS — the referenced source state root is known to the light client
//     and at least p blocks deep.
//  2. VP — the account proof verifies against that root and binds the
//     contract identifier to its account record.
//  3. Lc — the proven record's location names this chain.
//  4. The carried code hashes to the proven code hash.
//  5. Completeness — rebuilding the storage tree (in the source chain's
//     tree kind) from the carried entries reproduces the proven storage
//     root, so no entry can be omitted, altered, or injected.
//  6. Replay — the proven move nonce exceeds the target's high-water mark
//     for this contract (Fig. 2).
//
// On success it returns the proven account record; the caller applies it
// with ApplyMove2.
func VerifyMove2(local hashing.ChainID, db *state.DB, hs *HeaderStore, p *types.Move2Payload) (state.Account, error) {
	params, err := hs.Params(p.SourceChain)
	if err != nil {
		return state.Account{}, err
	}
	root, err := hs.TrustedStateRoot(p.SourceChain, p.SourceHeight)
	if err != nil {
		return state.Account{}, err
	}
	entry, err := trees.VerifyProof(params.TreeKind, root, p.AccountProof)
	if err != nil {
		return state.Account{}, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	if !bytes.Equal(entry.Key, p.Contract[:]) {
		return state.Account{}, fmt.Errorf("%w: proof is for %x, not %s", ErrBadProof, entry.Key, p.Contract)
	}
	acct, err := state.DecodeAccount(entry.Value)
	if err != nil {
		return state.Account{}, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	if acct.Location != local {
		return state.Account{}, fmt.Errorf("%w: Lc = %s, this chain is %s", ErrWrongTarget, acct.Location, local)
	}
	if err := checkCode(acct.CodeHash, p.Code); err != nil {
		return state.Account{}, err
	}
	if err := checkStorageComplete(params, acct.StorageRoot, p.Storage); err != nil {
		return state.Account{}, err
	}
	if seen := db.GetMoveNonce(p.Contract); acct.MoveNonce <= seen {
		return state.Account{}, fmt.Errorf("%w: proven nonce %d, already seen %d",
			ErrReplay, acct.MoveNonce, seen)
	}
	return acct, nil
}

func checkCode(codeHash hashing.Hash, code []byte) error {
	if codeHash.IsZero() {
		if len(code) != 0 {
			return fmt.Errorf("%w: code carried for code-less account", ErrIncompleteCode)
		}
		return nil
	}
	if hashing.Sum(code) != codeHash {
		return fmt.Errorf("%w: H(code) != proven hash", ErrIncompleteCode)
	}
	return nil
}

// checkStorageComplete recomputes the storage root, in the source chain's
// tree kind, over the carried entries. They must be what the source's
// StorageEntries lists: every slot once, in strictly ascending key order,
// none zero. The root is computed in one pass that relies on that order and
// keeps no tree, so a payload out of order or with a key repeated is
// refused as such, not sorted into shape.
func checkStorageComplete(params ChainParams, storageRoot hashing.Hash, entries []types.StorageEntry) error {
	for i := range entries {
		if entries[i].Value == (evm.Word{}) {
			return fmt.Errorf("%w: zero-valued storage entry", ErrIncompleteSet)
		}
	}
	root, err := trees.RootOf(params.TreeKind, 32, len(entries), func(i int) (key, value []byte) {
		return entries[i].Key[:], entries[i].Value[:]
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrIncompleteSet, err)
	}
	if root != storageRoot {
		return fmt.Errorf("%w: rebuilt root %s, proven %s", ErrIncompleteSet, root, storageRoot)
	}
	return nil
}

// ApplyMove2 recreates the verified contract locally (Alg. 1 lines 11-12):
// the account record is imported with this chain as its location, the code
// installed, and every storage entry rewritten through the journaled state
// so a later failure in moveFinish rolls the recreation back too.
func ApplyMove2(db *state.DB, p *types.Move2Payload, acct state.Account) {
	db.ImportAccount(p.Contract, acct, p.Code, p.Storage)
}
