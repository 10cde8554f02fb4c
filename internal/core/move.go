package core

import (
	"bytes"
	"fmt"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/trees"
	"scmove/internal/trie"
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
	return VerifyPreparedMove2(local, db, hs, p, nil)
}

// VerifyPreparedMove2 is VerifyMove2 with the completeness root (step 5)
// taken from s, PrepareMove2's result for p, instead of computed here: the
// same checks in the same order, failing with the same errors. A nil s
// computes the root, as VerifyMove2 does.
func VerifyPreparedMove2(local hashing.ChainID, db *state.DB, hs *HeaderStore, p *types.Move2Payload, s *Move2Storage) (state.Account, error) {
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
	var rebuilt hashing.Hash
	if s != nil {
		rebuilt, err = s.Root, s.Err
	} else {
		rebuilt, err = storageRoot(params.TreeKind, p.Storage)
	}
	if err != nil {
		return state.Account{}, err
	}
	if rebuilt != acct.StorageRoot {
		return state.Account{}, fmt.Errorf("%w: rebuilt root %s, proven %s", ErrIncompleteSet, rebuilt, acct.StorageRoot)
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

// Move2Storage is the part of a Move2 that grows with the moved contract's
// storage: the root of the carried entries in the source chain's tree kind,
// which the completeness check (VerifyMove2 step 5) compares with the proven
// record's, and the storage tree the target installs, built in the target's
// kind and hashed. It is a pure function of the payload, so one computed for
// any copy of a transaction serves every copy with the same id.
type Move2Storage struct {
	// Err is why the entries cannot be the proven storage — a zero value, or
	// keys out of order or repeated — wrapping ErrIncompleteSet; Root and
	// Tree are then zero. A failure before the storage step (an unknown
	// source chain) is Err too, and VerifyPreparedMove2 reports it first.
	Err  error
	Root hashing.Hash
	Tree trie.Tree
}

// PrepareMove2 computes p's Move2Storage for a target whose state trees are
// of the given kind. When the kinds match, one Build serves both: its root
// is the completeness check and the tree is the install. When they differ,
// the source-kind root is computed first, then the target-kind tree. It
// reads only p and hs.Params, which is fixed when the store is built, and
// touches no state, so it may run on any goroutine while the target
// executes blocks.
func PrepareMove2(hs *HeaderStore, target trie.Kind, p *types.Move2Payload) *Move2Storage {
	params, err := hs.Params(p.SourceChain)
	if err != nil {
		return &Move2Storage{Err: err}
	}
	entries := p.Storage
	if err := checkValues(entries); err != nil {
		return &Move2Storage{Err: err}
	}
	var s Move2Storage
	if params.TreeKind == target {
		if s.Tree, err = buildHashed(target, entries); err == nil {
			s.Root = s.Tree.RootHash()
		}
	} else if s.Root, err = trees.RootOf(params.TreeKind, 32, len(entries), entryAt(entries)); err == nil {
		s.Tree, err = buildHashed(target, entries)
	}
	if err != nil {
		return &Move2Storage{Err: fmt.Errorf("%w: %v", ErrIncompleteSet, err)}
	}
	return &s
}

// Matches reports whether s is still PrepareMove2's result for p: the
// completeness root recomputed over p's entries is s.Root, or both fail.
// A payload edited after its preparation does not match.
func (s *Move2Storage) Matches(hs *HeaderStore, p *types.Move2Payload) bool {
	params, err := hs.Params(p.SourceChain)
	if err != nil {
		return s.Err != nil
	}
	root, err := storageRoot(params.TreeKind, p.Storage)
	return (err == nil) == (s.Err == nil) && root == s.Root
}

// buildHashed builds the storage tree of a checked run and hashes it, so the
// block that installs it finds its root already computed.
func buildHashed(kind trie.Kind, entries []types.StorageEntry) (trie.Tree, error) {
	t, err := trees.Build(kind, 32, len(entries), entryAt(entries))
	if err != nil {
		return nil, err
	}
	t.RootHash()
	return t, nil
}

// storageRoot is the completeness root alone, for a verification without a
// prepared Move2Storage: the storage root, in the source chain's tree kind,
// over the carried entries. They must be what the source's StorageEntries
// lists: every slot once, in strictly ascending key order, none zero. The
// root is computed in one pass that relies on that order and keeps no tree,
// so a payload out of order or with a key repeated is refused as such, not
// sorted into shape.
func storageRoot(source trie.Kind, entries []types.StorageEntry) (hashing.Hash, error) {
	if err := checkValues(entries); err != nil {
		return hashing.Hash{}, err
	}
	root, err := trees.RootOf(source, 32, len(entries), entryAt(entries))
	if err != nil {
		return hashing.Hash{}, fmt.Errorf("%w: %v", ErrIncompleteSet, err)
	}
	return root, nil
}

// checkValues refuses a zero-valued entry: storage holds no zero word, so
// such an entry cannot be part of any proven storage.
func checkValues(entries []types.StorageEntry) error {
	for i := range entries {
		if entries[i].Value == (evm.Word{}) {
			return fmt.Errorf("%w: zero-valued storage entry", ErrIncompleteSet)
		}
	}
	return nil
}

// entryAt is the tree constructors' accessor over a payload's entries.
func entryAt(entries []types.StorageEntry) func(i int) (key, value []byte) {
	return func(i int) (key, value []byte) {
		return entries[i].Key[:], entries[i].Value[:]
	}
}

// ApplyMove2 recreates the verified contract locally (Alg. 1 lines 11-12):
// the account record is imported with this chain as its location, the code
// installed, and the storage tree built from the payload installed as the
// contract's whole storage through the journaled state, so a later failure
// in moveFinish rolls the recreation back too. A chain that prepared the
// payload installs its Move2Storage tree with state.DB.ImportAccount
// instead of building another.
func ApplyMove2(db *state.DB, p *types.Move2Payload, acct state.Account) {
	t, err := trees.Build(db.TreeKind(), 32, len(p.Storage), entryAt(p.Storage))
	if err != nil {
		panic(fmt.Sprintf("core: apply an unverified Move2 payload: %v", err))
	}
	db.ImportAccount(p.Contract, acct, p.Code, t)
}
