package core

import (
	"bytes"
	"fmt"
	"slices"

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
	p, _, err := proveLocked(db, contract, height)
	if err != nil {
		return nil, err
	}
	p.Code, p.Storage = db.GetCode(contract), db.StorageEntries(contract)
	return p, nil
}

// proveLocked is the part of a Move2 payload that every form shares: the
// contract, the source and the account proof, for a contract locked on
// db's chain. It returns the proven record too.
func proveLocked(db *state.DB, contract hashing.Address, height uint64) (*types.Move2Payload, state.Account, error) {
	acct, ok := db.GetAccount(contract)
	if !ok {
		return nil, acct, fmt.Errorf("core: build proof: no account %s", contract)
	}
	if acct.Location == db.ChainID() || acct.Location == 0 {
		return nil, acct, fmt.Errorf("%w: %s", ErrNotLocked, contract)
	}
	accountProof, err := db.ProveAccount(contract)
	if err != nil {
		return nil, acct, fmt.Errorf("core: build proof: %w", err)
	}
	return &types.Move2Payload{
		Contract:     contract,
		SourceChain:  db.ChainID(),
		SourceHeight: height,
		AccountProof: accountProof,
	}, acct, nil
}

// MoveScratch is BuildMoveDelta's reusable memory: the runs of the two
// copies it compares. The zero value is ready; a payload never aliases it.
type MoveScratch struct {
	src []types.StorageEntry
	// Target is the run the target's copy is read into, which a caller may
	// take and replace: a target chain keeps it for the delta's preparation
	// (chain.Chain.BuildMoveDelta).
	Target []types.StorageEntry
}

// BuildMoveDelta is BuildMoveProof for a Move to the chain whose state is
// dst. When dst holds a copy of the contract with storage — the locked copy
// an earlier Move left there — the payload is a delta against that copy
// (types.Move2Payload): the entries whose values differ from it, the keys
// it holds that the source has deleted, and the code only if the copy's
// code hash is not the proven one — unless that would carry more than half
// the full payload's bytes of storage. Such a delta saves less than it
// costs: the target reads its copy to merge it, on its event loop.
// Otherwise it is BuildMoveProof's full payload, byte for byte. The two
// copies are read into sc, which keeps the memory for the next call; the
// walk that sizes the delta stops once it is over the half.
func BuildMoveDelta(src, dst *state.DB, contract hashing.Address, height uint64, sc *MoveScratch) (*types.Move2Payload, error) {
	base, ok := dst.GetAccount(contract)
	if !ok || base.StorageRoot.IsZero() {
		return BuildMoveProof(src, contract, height)
	}
	p, acct, err := proveLocked(src, contract, height)
	if err != nil {
		return nil, err
	}
	sc.src = src.AppendStorage(sc.src[:0], contract)
	sc.Target = dst.AppendStorage(sc.Target[:0], contract)
	var changed, deleted int
	small := func() bool {
		return 2*(changed*storageEntrySize+deleted*storageKeySize) <= len(sc.src)*storageEntrySize
	}
	if !diffRuns(sc.src, sc.Target,
		func(types.StorageEntry) bool { changed++; return small() },
		func(evm.Word) bool { deleted++; return small() }) {
		p.Code, p.Storage = src.GetCode(contract), slices.Clone(sc.src)
		return p, nil
	}
	p.Base = base.StorageRoot
	if base.CodeHash != acct.CodeHash {
		p.Code = src.GetCode(contract)
	}
	if changed > 0 {
		p.Storage = make([]types.StorageEntry, 0, changed)
	}
	if deleted > 0 {
		p.Deleted = make([]evm.Word, 0, deleted)
	}
	diffRuns(sc.src, sc.Target,
		func(e types.StorageEntry) bool { p.Storage = append(p.Storage, e); return true },
		func(k evm.Word) bool { p.Deleted = append(p.Deleted, k); return true })
	return p, nil
}

// The encoded sizes of a storage entry and of a deleted key.
const (
	storageEntrySize = 64
	storageKeySize   = 32
)

// diffRuns walks two ascending runs, the source's storage and the target's
// copy, and hands changed every source entry the copy lacks or holds with
// another value, and deleted every key only the copy holds, both in key
// order. It stops, returning false, when either returns false.
func diffRuns(src, dst []types.StorageEntry, changed func(types.StorageEntry) bool, deleted func(evm.Word) bool) bool {
	for len(src) > 0 || len(dst) > 0 {
		c := 1
		switch {
		case len(src) == 0:
		case len(dst) == 0:
			c = -1
		default:
			c = bytes.Compare(src[0].Key[:], dst[0].Key[:])
		}
		more := true
		switch {
		case c < 0:
			more = changed(src[0])
			src = src[1:]
		case c > 0:
			more = deleted(dst[0].Key)
			dst = dst[1:]
		default:
			if src[0].Value != dst[0].Value {
				more = changed(src[0])
			}
			src, dst = src[1:], dst[1:]
		}
		if !more {
			return false
		}
	}
	return true
}

// FullMove2 returns the full payload the delta p stands for: p's proof with
// the code and complete storage of src's copy of the contract. They are
// what they were at p's source height: the contract is locked on src, and
// nothing writes a locked copy. A relayer sends it when the target refuses
// p's base (ErrStaleBase).
func FullMove2(src *state.DB, p *types.Move2Payload) (*types.Move2Payload, error) {
	if acct, ok := src.GetAccount(p.Contract); !ok || acct.Location == src.ChainID() || acct.Location == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotLocked, p.Contract)
	}
	return &types.Move2Payload{
		Contract:     p.Contract,
		SourceChain:  p.SourceChain,
		SourceHeight: p.SourceHeight,
		AccountProof: p.AccountProof,
		Code:         src.GetCode(p.Contract),
		Storage:      src.StorageEntries(p.Contract),
	}, nil
}

// Move2Code returns the code a Move2 installs on the target whose state is
// db: the payload's, or, for a delta that carries none, the copy's. A delta
// whose base is not db's copy of the contract is refused with ErrStaleBase.
// A full payload, a delta against nothing, reads nothing from db.
func Move2Code(db *state.DB, p *types.Move2Payload) ([]byte, error) {
	code := p.Code
	if !p.IsDelta() {
		return code, nil
	}
	if len(code) == 0 {
		code = db.GetCode(p.Contract)
	}
	if base, ok := db.GetAccount(p.Contract); !ok || base.StorageRoot != p.Base {
		return code, fmt.Errorf("%w: %s", ErrStaleBase, p.Contract)
	}
	return code, nil
}

// AppendMove2Base appends to dst the storage of db's copy of the contract,
// ascending by key, that a Move2 is merged into: nothing for a full
// payload, the copy db holds for a delta, whether or not it is the delta's
// base (Move2Code tells).
func AppendMove2Base(dst []types.StorageEntry, db *state.DB, p *types.Move2Payload) []types.StorageEntry {
	if !p.IsDelta() {
		return dst
	}
	return db.AppendStorage(dst, p.Contract)
}

// Move2Entries is the number of storage entries p stands for on the target
// whose state is db, which a Move2's gas is charged for, counted without
// refusing anything and without reading the copy: len(p.Storage) for a
// full payload; for a delta, the slot count of db's copy of the contract,
// plus one for each of p's entries whose key the copy lacks, less one for
// each of p's deleted keys that it holds — k point reads, whatever the
// copy's size. For a delta MergeMove2 accepts it is the merge's length. A
// target charges a Move2 for this count over the copy it holds, whether or
// not that copy is p's base.
func Move2Entries(db *state.DB, p *types.Move2Payload) int {
	if !p.IsDelta() {
		return len(p.Storage)
	}
	n := db.StorageLen(p.Contract)
	for _, u := range p.Storage {
		if db.GetStorage(p.Contract, u.Key) == (evm.Word{}) {
			n++
		}
	}
	for _, k := range p.Deleted {
		if db.GetStorage(p.Contract, k) != (evm.Word{}) {
			n--
		}
	}
	return n
}

// MergeMove2 appends to dst the storage p stands for over base, its base
// copy's storage ascending by key: base with p's entries written over it
// and p's deleted keys removed. The result is ascending, every key once,
// no value zero, as a full payload's storage is; its root is what
// completeness checks. A delta that cannot come from a correct relayer is
// refused, wrapping ErrIncompleteSet: entries or deleted keys not strictly
// ascending, a zero value, a deleted key that base lacks or that p also
// writes. Over an empty base with nothing deleted — a full payload — the
// result is p.Storage itself, unchecked and uncopied: the completeness
// root refuses what is out of shape there.
func MergeMove2(dst, base []types.StorageEntry, p *types.Move2Payload) ([]types.StorageEntry, error) {
	ups, dels := p.Storage, p.Deleted
	if len(base) == 0 && len(dels) == 0 {
		return ups, nil
	}
	if err := checkDeltaOrder(p); err != nil {
		return dst, err
	}
	// A deleted key below the key in hand is one base does not hold: every
	// base key below it has been passed, and a deleted one consumed.
	lacks := func(k evm.Word) bool { return len(dels) > 0 && bytes.Compare(dels[0][:], k[:]) < 0 }
	for len(base) > 0 || len(ups) > 0 {
		if len(ups) == 0 || len(base) > 0 && bytes.Compare(base[0].Key[:], ups[0].Key[:]) < 0 {
			e := base[0]
			base = base[1:]
			if lacks(e.Key) {
				break
			}
			if len(dels) > 0 && dels[0] == e.Key {
				dels = dels[1:]
				continue
			}
			dst = append(dst, e)
			continue
		}
		u := ups[0]
		ups = ups[1:]
		if len(base) > 0 && base[0].Key == u.Key {
			base = base[1:]
		}
		if lacks(u.Key) {
			break
		}
		if len(dels) > 0 && dels[0] == u.Key {
			return dst, fmt.Errorf("%w: delta writes and deletes %x", ErrIncompleteSet, u.Key)
		}
		dst = append(dst, u)
	}
	if len(dels) > 0 {
		return dst, fmt.Errorf("%w: delta deletes %x, which its base does not hold", ErrIncompleteSet, dels[0])
	}
	return dst, nil
}

// VerifyMove2 checks a Move2 payload on the target chain (Alg. 1 lines
// 5-10 plus the replay and completeness rules of §III-E):
//
//  1. VS — the referenced source state root is known to the light client
//     and at least p blocks deep.
//
//  2. VP — the account proof verifies against that root and binds the
//     contract identifier to its account record.
//
//  3. Lc — the proven record's location names this chain.
//
//  4. The carried code hashes to the proven code hash.
//
//  5. Completeness — rebuilding the storage tree (in the source chain's
//     tree kind) from the carried entries reproduces the proven storage
//     root, so no entry can be omitted, altered, or injected.
//
//  6. Replay — the proven move nonce exceeds the target's high-water mark
//     for this contract (Fig. 2).
//
// A delta is checked against db's copy of the contract, its base, right
// after Lc (ErrStaleBase); a delta refused there whose nonce is also stale
// is refused as a replay (6), since one replayed after it landed finds its
// own result in place of its base. Steps 4 and 5 check the code it
// installs and the merge of the delta into the base (MergeMove2) exactly
// as they check a full payload's code and entries: a full payload is a
// delta against nothing.
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
	c, err := verifyClaim(local, db, hs, p)
	if err != nil {
		return state.Account{}, err
	}
	if err := c.complete(db, p, s); err != nil {
		return state.Account{}, err
	}
	return c.acct, nil
}

// claim is what VerifyMove2's steps 1-4 establish of a payload: the proven
// account record, the code the Move2 installs, and the source chain's tree
// kind, the kind of the proven storage root.
type claim struct {
	acct   state.Account
	code   []byte
	source trie.Kind
}

// verifyClaim runs VerifyMove2's steps 1-4, the base check of a delta among
// them, in its order and with its errors.
func verifyClaim(local hashing.ChainID, db *state.DB, hs *HeaderStore, p *types.Move2Payload) (claim, error) {
	params, err := hs.Params(p.SourceChain)
	if err != nil {
		return claim{}, err
	}
	root, err := hs.TrustedStateRoot(p.SourceChain, p.SourceHeight)
	if err != nil {
		return claim{}, err
	}
	entry, err := trees.VerifyProof(params.TreeKind, root, p.AccountProof)
	if err != nil {
		return claim{}, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	if !bytes.Equal(entry.Key, p.Contract[:]) {
		return claim{}, fmt.Errorf("%w: proof is for %x, not %s", ErrBadProof, entry.Key, p.Contract)
	}
	acct, err := state.DecodeAccount(entry.Value)
	if err != nil {
		return claim{}, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	if acct.Location != local {
		return claim{}, fmt.Errorf("%w: Lc = %s, this chain is %s", ErrWrongTarget, acct.Location, local)
	}
	code, err := Move2Code(db, p)
	if err != nil {
		if rerr := checkReplay(db, p, acct); rerr != nil {
			return claim{}, rerr
		}
		return claim{}, err
	}
	if err := checkCode(acct.CodeHash, code); err != nil {
		return claim{}, err
	}
	return claim{acct: acct, code: code, source: params.TreeKind}, nil
}

// complete runs VerifyMove2's steps 5 and 6 over s, p's preparation, or,
// for a nil s, over the completeness root computed here.
func (c claim) complete(db *state.DB, p *types.Move2Payload, s *Move2Storage) error {
	var (
		rebuilt hashing.Hash
		err     error
	)
	if s != nil {
		rebuilt, err = s.Root, s.Err
	} else {
		var entries []types.StorageEntry
		if entries, err = MergeMove2(nil, AppendMove2Base(nil, db, p), p); err == nil {
			rebuilt, err = storageRoot(c.source, entries)
		}
	}
	if err != nil {
		return err
	}
	if err := c.checkRoot(rebuilt); err != nil {
		return err
	}
	return checkReplay(db, p, c.acct)
}

// checkRoot refuses a storage root, rebuilt from a payload, that is not the
// proven one.
func (c claim) checkRoot(rebuilt hashing.Hash) error {
	if rebuilt != c.acct.StorageRoot {
		return fmt.Errorf("%w: rebuilt root %s, proven %s", ErrIncompleteSet, rebuilt, c.acct.StorageRoot)
	}
	return nil
}

// InstallMove2 verifies p on the target whose state is db and installs it
// through the journaled state: VerifyPreparedMove2 then ApplyMove2, with
// their checks in their order and their errors — except for a delta from a
// chain of db's own tree kind, which needs no preparation and is verified
// by installing it. Its entries and deleted keys are written into the copy
// as SSTOREs (O(k log n), the few stubs they land in rebuilt), and the
// copy's updated storage root, which for one kind is the completeness
// root, is compared with the proven one before anything else runs. So a
// refused delta may have written the copy: the caller reverts to a
// snapshot taken before. s is p's preparation (NeedsPreparation): a full
// payload's tree comes from it, and a cross-kind delta's completeness root
// is computed here, as VerifyMove2 does, when s is nil.
func InstallMove2(local hashing.ChainID, db *state.DB, hs *HeaderStore, p *types.Move2Payload, s *Move2Storage) error {
	c, err := verifyClaim(local, db, hs, p)
	if err != nil {
		return err
	}
	if p.IsDelta() && c.source == db.TreeKind() {
		if err := checkDelta(db, p); err != nil {
			return err
		}
		writeDelta(db, p)
		updated, _ := db.GetAccount(p.Contract)
		if err := c.checkRoot(updated.StorageRoot); err != nil {
			return err
		}
		if err := checkReplay(db, p, c.acct); err != nil {
			return err
		}
		db.ImportAccount(p.Contract, c.acct, c.code, nil)
		return nil
	}
	if err := c.complete(db, p, s); err != nil {
		return err
	}
	if p.IsDelta() {
		writeDelta(db, p)
		db.ImportAccount(p.Contract, c.acct, c.code, nil)
		return nil
	}
	db.ImportAccount(p.Contract, c.acct, c.code, s.Tree)
	return nil
}

// NeedsPreparation reports whether InstallMove2 needs p's preparation on a
// target whose state trees are of the given kind: every payload but a
// delta from a chain of that kind. A payload from a chain hs does not know
// gets one too, which carries the error VerifyMove2 reports first.
func NeedsPreparation(hs *HeaderStore, target trie.Kind, p *types.Move2Payload) bool {
	params, err := hs.Params(p.SourceChain)
	return !p.IsDelta() || err != nil || params.TreeKind != target
}

// checkDelta refuses, as MergeMove2 would and with its errors, a delta
// that cannot come from a correct relayer — a zero value, entries or
// deleted keys not strictly ascending, a key both written and deleted, a
// deleted key db's copy lacks — reading only the copy's slots that p
// deletes. What it passes, MergeMove2 merges.
func checkDelta(db *state.DB, p *types.Move2Payload) error {
	if err := checkDeltaOrder(p); err != nil {
		return err
	}
	// MergeMove2 walks both in key order and stops at the first deleted key
	// that is written too or that the base lacks.
	for _, k := range p.Deleted {
		if _, written := slices.BinarySearchFunc(p.Storage, k, func(e types.StorageEntry, k evm.Word) int {
			return bytes.Compare(e.Key[:], k[:])
		}); written {
			return fmt.Errorf("%w: delta writes and deletes %x", ErrIncompleteSet, k)
		}
		if db.GetStorage(p.Contract, k) == (evm.Word{}) {
			return fmt.Errorf("%w: delta deletes %x, which its base does not hold", ErrIncompleteSet, k)
		}
	}
	return nil
}

// checkDeltaOrder refuses a zero-valued entry, and entries or deleted keys
// not strictly ascending: what MergeMove2 and checkDelta check first.
func checkDeltaOrder(p *types.Move2Payload) error {
	ups, dels := p.Storage, p.Deleted
	if err := checkValues(ups); err != nil {
		return err
	}
	for i := 1; i < len(ups); i++ {
		if bytes.Compare(ups[i-1].Key[:], ups[i].Key[:]) >= 0 {
			return fmt.Errorf("%w: delta entries not strictly ascending at %d", ErrIncompleteSet, i)
		}
	}
	for i := 1; i < len(dels); i++ {
		if bytes.Compare(dels[i-1][:], dels[i][:]) >= 0 {
			return fmt.Errorf("%w: deleted keys not strictly ascending at %d", ErrIncompleteSet, i)
		}
	}
	return nil
}

// writeDelta writes a checked delta into db's copy of the contract through
// the journaled state, as SSTOREs: each entry written, each deleted key
// cleared.
func writeDelta(db *state.DB, p *types.Move2Payload) {
	for _, u := range p.Storage {
		db.SetStorage(p.Contract, u.Key, u.Value)
	}
	for _, k := range p.Deleted {
		db.SetStorage(p.Contract, k, evm.Word{})
	}
}

// checkReplay refuses a Move2 whose proven move nonce does not exceed the
// target's high-water mark for the contract.
func checkReplay(db *state.DB, p *types.Move2Payload, acct state.Account) error {
	if seen := db.GetMoveNonce(p.Contract); acct.MoveNonce <= seen {
		return fmt.Errorf("%w: proven nonce %d, already seen %d", ErrReplay, acct.MoveNonce, seen)
	}
	return nil
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
// storage: the root of its entries in the source chain's tree kind, which
// the completeness check (VerifyMove2 step 5) compares with the proven
// record's, and, for a full payload, the storage tree the target installs,
// built in the target's kind and hashed. The entries are a full payload's,
// or a delta's merged into its base; a delta needs no tree, since it is
// written into the target's copy slot by slot (InstallMove2). It is a pure
// function of the payload (and, for a delta, of the base), so one computed
// for any copy of a transaction serves every copy with the same id.
type Move2Storage struct {
	// Err is why the entries cannot be the proven storage — a zero value, or
	// keys out of order or repeated — wrapping ErrIncompleteSet; Root and
	// Tree are then zero. A failure before the storage step (an unknown
	// source chain) is Err too, and VerifyPreparedMove2 reports it first.
	Err  error
	Root hashing.Hash
	Tree trie.Tree
	// Nodes is the number of tree nodes the preparation built: Tree's.
	Nodes int
}

// PrepareMove2 computes p's Move2Storage over base, the target's copy as
// AppendMove2Base read it, for a target whose state trees are of the given
// kind. It merges p into base (MergeMove2) in scratch, which it returns for
// reuse, and hashes the merge in the source chain's kind without building
// it (trees.RootOf). Only a full payload gets a tree: when the kinds match,
// one Build serves both the completeness check and the install, its root
// the one and its tree the other; when they differ, the target-kind tree
// is built after the root. It reads only p, base and hs.Params, which is
// fixed when the store is built, and touches no state, so it may run on
// any goroutine while the target executes blocks.
func PrepareMove2(hs *HeaderStore, target trie.Kind, p *types.Move2Payload, base, scratch []types.StorageEntry) (*Move2Storage, []types.StorageEntry) {
	entries, err := MergeMove2(scratch[:0], base, p)
	if len(base) > 0 || len(p.Deleted) > 0 {
		scratch = entries // the merge was built there
	}
	if err != nil {
		return &Move2Storage{Err: err}, scratch
	}
	params, err := hs.Params(p.SourceChain)
	if err != nil {
		return &Move2Storage{Err: err}, scratch
	}
	if err := checkValues(entries); err != nil {
		return &Move2Storage{Err: err}, scratch
	}
	var (
		s    Move2Storage
		work trie.Work
	)
	switch {
	case p.IsDelta() || params.TreeKind != target:
		if s.Root, err = trees.RootOf(params.TreeKind, 32, len(entries), entryAt(entries)); err == nil && !p.IsDelta() {
			s.Tree, err = buildHashed(&work, target, entries)
		}
	default:
		if s.Tree, err = buildHashed(&work, target, entries); err == nil {
			s.Root = s.Tree.RootHash()
		}
	}
	if err != nil {
		return &Move2Storage{Err: fmt.Errorf("%w: %v", ErrIncompleteSet, err)}, scratch
	}
	s.Nodes = int(work.Nodes())
	return &s, scratch
}

// Matches reports whether s is still the preparation of p over base, merged
// in scratch: the completeness root recomputed over the entries p stands
// for is s.Root, or both fail. A payload edited after its preparation does
// not match.
func (s *Move2Storage) Matches(hs *HeaderStore, p *types.Move2Payload, base, scratch []types.StorageEntry) bool {
	params, err := hs.Params(p.SourceChain)
	if err != nil {
		return s.Err != nil
	}
	entries, err := MergeMove2(scratch[:0], base, p)
	if err != nil {
		return s.Err != nil
	}
	root, err := storageRoot(params.TreeKind, entries)
	return (err == nil) == (s.Err == nil) && root == s.Root
}

// buildHashed builds the storage tree of a checked run, counting its nodes
// in w, and hashes it, so the block that installs it finds its root already
// computed.
func buildHashed(w *trie.Work, kind trie.Kind, entries []types.StorageEntry) (trie.Tree, error) {
	t, err := trees.Build(w, kind, 32, len(entries), entryAt(entries))
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

// ApplyMove2 recreates the verified contract locally (Alg. 1 lines 11-12)
// through the journaled state, so a later failure in moveFinish rolls the
// recreation back too: the account record is imported with this chain as
// its location and the code installed; a full payload's storage is built
// into a tree installed as the contract's whole storage, and a delta's
// entries and deleted keys are written into the target's copy as SSTOREs.
// A chain installs with InstallMove2, which verifies too.
func ApplyMove2(db *state.DB, p *types.Move2Payload, acct state.Account) {
	code, err := Move2Code(db, p)
	if err == nil && p.IsDelta() {
		if err = checkDelta(db, p); err == nil {
			writeDelta(db, p)
			db.ImportAccount(p.Contract, acct, code, nil)
			return
		}
	}
	var t trie.Tree
	if err == nil {
		t, err = trees.Build(db.TreeWork(), db.TreeKind(), 32, len(p.Storage), entryAt(p.Storage))
	}
	if err != nil {
		panic(fmt.Sprintf("core: apply an unverified Move2 payload: %v", err))
	}
	db.ImportAccount(p.Contract, acct, code, t)
}
