package state

import (
	"bytes"
	"sort"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// View is a speculative overlay over a frozen parent DB: the unit of
// optimistic concurrency in the parallel block executor. Each transaction
// lane executes against its own View, which records the parent values the
// transaction observed (its read set, at account-field and storage-slot
// granularity) and buffers every write in an overlay the parent never sees.
//
// After speculation, Validate replays the read set against the state the
// transaction would actually have executed on in block order; if every
// observed value still matches, ApplyTo replays the buffered writes through
// the normal StateAccess setters, reproducing bit-for-bit what serial
// execution would have written. Many Views may read one parent concurrently
// (via the DB's shared read path) as long as nothing mutates the parent.
//
// Balances are special-cased: AddBalance/SubBalance accumulate commutative
// deltas without observing the parent, so the coinbase fee credit every
// transaction performs does not serialize whole blocks. Only GetBalance
// materializes a parent read.
type View struct {
	db       *DB
	accounts map[hashing.Address]*viewAccount
	slots    map[viewSlotKey]*viewSlot
	logs     []*evm.Log
	undo     []viewUndo
	// epochCounter feeds acctWrites.epoch on wipes. It is monotonic across
	// reverts so a revived wipe can never resurrect slot writes that were
	// rolled back with an earlier one.
	epochCounter int
}

var _ evm.ExecState = (*View)(nil)

// NewView returns an empty overlay over db. The parent must stay frozen
// (no writes, no cache-installing reads) for the lifetime of the view.
func NewView(db *DB) *View {
	return &View{
		db:       db,
		accounts: make(map[hashing.Address]*viewAccount),
		slots:    make(map[viewSlotKey]*viewSlot),
	}
}

type viewSlotKey struct {
	addr hashing.Address
	key  evm.Word
}

// acctWrites is the per-account write overlay. It is the only part of a
// viewAccount that snapshots roll back: read sets must survive reverts,
// because a reverted subcall still observed the parent values it read.
type acctWrites struct {
	// wiped disables parent fall-through entirely (DeleteAccount); cleared
	// disables it for storage only (a Move2 import replaces the storage and
	// keeps the record). epoch identifies the wipe-or-clear generation; slot
	// writes from older generations are dead.
	wiped   bool
	cleared bool
	epoch   int

	nonceSet bool
	nonce    uint64

	// balSet replaces the parent balance with balBase (wipes and Move2
	// imports). balAdd/balSub accumulate commutative deltas on top of
	// whichever base applies; wrapping mod 2^256 composes exactly like the
	// serial Add/Sub sequence.
	balSet     bool
	balBase    u256.Int
	balTouched bool
	balAdd     u256.Int
	balSub     u256.Int

	codeSet  bool
	code     []byte
	codeHash hashing.Hash

	locSet bool
	loc    hashing.ChainID

	moveSet   bool
	moveNonce uint64
}

// written reports whether the overlay carries any account-creating write —
// the touches that make a serial mutable() call bring the account into
// existence.
func (w *acctWrites) written() bool {
	return w.nonceSet || w.balSet || w.balTouched || w.codeSet || w.locSet || w.moveSet
}

type viewAccount struct {
	// Parent observation, loaded at most once: the parent is frozen while
	// the view lives, so one snapshot serves every field read.
	parentLoaded bool
	parentExists bool
	parent       Account

	// Read set: which parent fields the transaction observed. Never rolled
	// back.
	readExists bool
	readNonce  bool
	readBal    bool
	readCode   bool
	readLoc    bool
	readMove   bool

	w acctWrites
}

// slotWrites is the rollback unit of one storage slot.
type slotWrites struct {
	written bool
	val     evm.Word
	epoch   int
}

type viewSlot struct {
	// read/parentVal record the observed parent value; never rolled back.
	read      bool
	parentVal evm.Word
	w         slotWrites
}

// viewUndo is one journal entry: the pre-mutation write overlay of an
// account or slot, or a log append.
type viewUndo struct {
	kind uint8
	addr hashing.Address
	key  evm.Word
	acct acctWrites
	slot slotWrites
}

const (
	undoAccount uint8 = iota
	undoSlot
	undoLog
)

// acct returns the overlay entry for addr, creating an empty one. Creating
// an entry alone observes and writes nothing.
func (v *View) acct(addr hashing.Address) *viewAccount {
	a, ok := v.accounts[addr]
	if !ok {
		a = &viewAccount{}
		v.accounts[addr] = a
	}
	return a
}

// mutate journals addr's current write overlay and returns the entry.
func (v *View) mutate(addr hashing.Address) *viewAccount {
	a := v.acct(addr)
	v.undo = append(v.undo, viewUndo{kind: undoAccount, addr: addr, acct: a.w})
	return a
}

// load snapshots the parent record on first fall-through read.
func (v *View) load(a *viewAccount, addr hashing.Address) {
	if !a.parentLoaded {
		a.parent, a.parentExists = v.db.sharedAccount(addr)
		a.parentLoaded = true
	}
}

// Exists implements evm.StateAccess.
func (v *View) Exists(addr hashing.Address) bool {
	a := v.acct(addr)
	if a.w.written() {
		return true
	}
	if a.w.wiped {
		return false
	}
	v.load(a, addr)
	a.readExists = true
	return a.parentExists
}

// GetNonce implements evm.StateAccess.
func (v *View) GetNonce(addr hashing.Address) uint64 {
	a := v.acct(addr)
	if a.w.nonceSet {
		return a.w.nonce
	}
	if a.w.wiped {
		return 0
	}
	v.load(a, addr)
	a.readNonce = true
	return a.parent.Nonce
}

// SetNonce implements evm.StateAccess.
func (v *View) SetNonce(addr hashing.Address, nonce uint64) {
	a := v.mutate(addr)
	a.w.nonceSet, a.w.nonce = true, nonce
}

// GetBalance implements evm.StateAccess.
func (v *View) GetBalance(addr hashing.Address) u256.Int {
	a := v.acct(addr)
	base := u256.Zero()
	switch {
	case a.w.balSet:
		base = a.w.balBase
	case a.w.wiped:
		// zero base, no parent read
	default:
		v.load(a, addr)
		a.readBal = true
		base = a.parent.Balance
	}
	return base.Add(a.w.balAdd).Sub(a.w.balSub)
}

// AddBalance implements evm.StateAccess as a commutative delta: no parent
// value is observed, so concurrent credits to one account never conflict.
func (v *View) AddBalance(addr hashing.Address, amount u256.Int) {
	a := v.mutate(addr)
	a.w.balTouched = true
	a.w.balAdd = a.w.balAdd.Add(amount)
}

// SubBalance implements evm.StateAccess (see AddBalance).
func (v *View) SubBalance(addr hashing.Address, amount u256.Int) {
	a := v.mutate(addr)
	a.w.balTouched = true
	a.w.balSub = a.w.balSub.Add(amount)
}

// GetCode implements evm.StateAccess.
func (v *View) GetCode(addr hashing.Address) []byte {
	a := v.acct(addr)
	if a.w.codeSet {
		return a.w.code
	}
	if a.w.wiped {
		return nil
	}
	v.load(a, addr)
	a.readCode = true
	if a.parent.CodeHash.IsZero() {
		return nil
	}
	return v.db.sharedCode(a.parent.CodeHash)
}

// GetCodeHash implements evm.StateAccess.
func (v *View) GetCodeHash(addr hashing.Address) hashing.Hash {
	a := v.acct(addr)
	if a.w.codeSet {
		return a.w.codeHash
	}
	if a.w.wiped {
		return hashing.ZeroHash
	}
	v.load(a, addr)
	a.readCode = true
	return a.parent.CodeHash
}

// CreateContract implements evm.StateAccess.
func (v *View) CreateContract(addr hashing.Address, code []byte) {
	a := v.mutate(addr)
	codeCopy := make([]byte, len(code))
	copy(codeCopy, code)
	a.w.codeSet = true
	a.w.code = codeCopy
	a.w.codeHash = hashing.Sum(codeCopy)
	a.w.locSet = true
	a.w.loc = v.db.chainID
}

// GetStorage implements evm.StateAccess.
func (v *View) GetStorage(addr hashing.Address, key evm.Word) evm.Word {
	a := v.acct(addr)
	k := viewSlotKey{addr, key}
	s := v.slots[k]
	if s != nil && s.w.written && s.w.epoch == a.w.epoch {
		return s.w.val
	}
	if a.w.wiped || a.w.cleared {
		return evm.Word{}
	}
	if s == nil {
		s = &viewSlot{}
		v.slots[k] = s
	}
	if !s.read {
		s.parentVal, _ = v.db.sharedStorage(addr, key)
		s.read = true
	}
	return s.parentVal
}

// SetStorage implements evm.StateAccess. Like the serial DB, a storage
// write alone does not bring the account into existence.
func (v *View) SetStorage(addr hashing.Address, key, value evm.Word) {
	a := v.acct(addr)
	k := viewSlotKey{addr, key}
	s := v.slots[k]
	if s == nil {
		s = &viewSlot{}
		v.slots[k] = s
	}
	v.undo = append(v.undo, viewUndo{kind: undoSlot, addr: addr, key: key, slot: s.w})
	s.w = slotWrites{written: true, val: value, epoch: a.w.epoch}
}

// GetLocation implements evm.StateAccess.
func (v *View) GetLocation(addr hashing.Address) hashing.ChainID {
	a := v.acct(addr)
	if a.w.locSet {
		if a.w.loc != 0 {
			return a.w.loc
		}
		return v.db.chainID
	}
	if a.w.wiped {
		return v.db.chainID
	}
	v.load(a, addr)
	a.readLoc = true
	return v.observedLocation(a)
}

// observedLocation applies the absent-is-local default to the parent
// snapshot (mirrors DB.GetLocation).
func (v *View) observedLocation(a *viewAccount) hashing.ChainID {
	if a.parentExists && a.parent.Location != 0 {
		return a.parent.Location
	}
	return v.db.chainID
}

// SetLocation implements evm.StateAccess.
func (v *View) SetLocation(addr hashing.Address, chain hashing.ChainID) {
	a := v.mutate(addr)
	a.w.locSet, a.w.loc = true, chain
}

// GetMoveNonce implements evm.StateAccess.
func (v *View) GetMoveNonce(addr hashing.Address) uint64 {
	a := v.acct(addr)
	if a.w.moveSet {
		return a.w.moveNonce
	}
	if a.w.wiped {
		return 0
	}
	v.load(a, addr)
	a.readMove = true
	return a.parent.MoveNonce
}

// SetMoveNonce implements evm.StateAccess.
func (v *View) SetMoveNonce(addr hashing.Address, nonce uint64) {
	a := v.mutate(addr)
	a.w.moveSet, a.w.moveNonce = true, nonce
}

// DeleteAccount implements evm.StateAccess (SELFDESTRUCT): the overlay
// forgets every pending write and shields all parent fields, and a fresh
// epoch kills the account's buffered storage writes.
func (v *View) DeleteAccount(addr hashing.Address) {
	a := v.mutate(addr)
	v.epochCounter++
	a.w = acctWrites{wiped: true, epoch: v.epochCounter}
}

// WipeStorage empties addr's storage, keeping the record (see DB.WipeStorage):
// parent slots are shielded and a fresh epoch kills the buffered writes.
func (v *View) WipeStorage(addr hashing.Address) {
	a := v.mutate(addr)
	v.epochCounter++
	a.w.cleared, a.w.epoch = true, v.epochCounter
}

// ImportAccount installs a full account record (Move2 recreation), matching
// DB.ImportAccount field for field: entries replace the account's storage.
func (v *View) ImportAccount(addr hashing.Address, acct Account, code []byte, entries []StorageEntry) {
	v.WipeStorage(addr)
	a := v.mutate(addr)
	a.w.nonceSet, a.w.nonce = true, acct.Nonce
	a.w.balSet, a.w.balBase = true, acct.Balance
	a.w.balTouched, a.w.balAdd, a.w.balSub = false, u256.Zero(), u256.Zero()
	a.w.moveSet, a.w.moveNonce = true, acct.MoveNonce
	a.w.locSet, a.w.loc = true, v.db.chainID
	if len(code) > 0 {
		codeCopy := make([]byte, len(code))
		copy(codeCopy, code)
		a.w.codeSet, a.w.code, a.w.codeHash = true, codeCopy, hashing.Sum(codeCopy)
	}
	for _, e := range entries {
		v.SetStorage(addr, e.Key, e.Value)
	}
}

// AddLog implements evm.StateAccess.
func (v *View) AddLog(log *evm.Log) {
	v.undo = append(v.undo, viewUndo{kind: undoLog})
	v.logs = append(v.logs, log)
}

// TakeLogs returns and clears the accumulated logs (evm.ExecState).
func (v *View) TakeLogs() []*evm.Log {
	logs := v.logs
	v.logs = nil
	return logs
}

// Snapshot implements evm.StateAccess.
func (v *View) Snapshot() int { return len(v.undo) }

// RevertToSnapshot implements evm.StateAccess. Only write overlays roll
// back; recorded reads persist, because a reverted subcall still observed
// them and validation must re-check everything the execution path saw.
func (v *View) RevertToSnapshot(id int) {
	for i := len(v.undo) - 1; i >= id; i-- {
		u := v.undo[i]
		switch u.kind {
		case undoAccount:
			v.accounts[u.addr].w = u.acct
		case undoSlot:
			v.slots[viewSlotKey{u.addr, u.key}].w = u.slot
		case undoLog:
			v.logs = v.logs[:len(v.logs)-1]
		}
	}
	v.undo = v.undo[:id]
}

// Accesses reports the view's recorded read/write set at the granularity
// the conflict scheduler tracks: per account, whether metadata (existence,
// nonce, code, location, move-nonce) was read or written, and whether the
// balance was read, replaced, or delta-adjusted; per storage slot, whether
// it was read and whether a write survives (writes buried by a later
// account wipe are dead and not reported — the wipe itself surfaces as a
// metadata write). Iteration order is map order: callers must not depend
// on it.
func (v *View) Accesses(
	acct func(addr hashing.Address, metaRead, metaWrite, balRead, balWrite, balDelta bool),
	slot func(addr hashing.Address, key evm.Word, read, written bool),
) {
	for addr, a := range v.accounts {
		metaRead := a.readExists || a.readNonce || a.readCode || a.readLoc || a.readMove
		metaWrite := a.w.wiped || a.w.cleared || a.w.nonceSet || a.w.codeSet || a.w.locSet || a.w.moveSet
		if metaRead || metaWrite || a.readBal || a.w.balSet || a.w.balTouched {
			acct(addr, metaRead, metaWrite, a.readBal, a.w.balSet, a.w.balTouched)
		}
	}
	for k, s := range v.slots {
		written := s.w.written
		if a, ok := v.accounts[k.addr]; ok && s.w.epoch != a.w.epoch {
			written = false
		}
		if s.read || written {
			slot(k.addr, k.key, s.read, written)
		}
	}
}

// Validate re-reads every recorded parent observation through st — the
// state the transaction would actually execute on in block order — and
// reports whether all of them still hold. When it returns true, replaying
// the speculative execution on st would read exactly the values the lane
// read, so the buffered writes and the receipt are byte-identical to a
// serial re-execution.
func (v *View) Validate(st evm.StateAccess) bool {
	for addr, a := range v.accounts {
		if a.readExists && st.Exists(addr) != a.parentExists {
			return false
		}
		if a.readNonce && st.GetNonce(addr) != a.parent.Nonce {
			return false
		}
		if a.readBal && !st.GetBalance(addr).Eq(a.parent.Balance) {
			return false
		}
		if a.readCode && st.GetCodeHash(addr) != a.parent.CodeHash {
			return false
		}
		if a.readLoc && st.GetLocation(addr) != v.observedLocation(a) {
			return false
		}
		if a.readMove && st.GetMoveNonce(addr) != a.parent.MoveNonce {
			return false
		}
	}
	for k, s := range v.slots {
		if s.read && st.GetStorage(k.addr, k.key) != s.parentVal {
			return false
		}
	}
	return true
}

// ApplyTarget is what a view flushes into: the canonical DB, or the view
// that accumulates a block's committed writes.
type ApplyTarget interface {
	evm.StateAccess
	WipeStorage(addr hashing.Address)
}

// ApplyTo replays the final write overlay into st through the ordinary
// setters, in sorted (address, key) order so the flush is deterministic.
// Field-granular replay reproduces exactly the records serial execution
// would have produced — including account-creation side effects (zero-delta
// balance touches), SELFDESTRUCT wipes and Move2 storage replacement. Logs
// are not replayed: the transaction's receipt already carries them.
func (v *View) ApplyTo(st ApplyTarget) {
	addrs := make([]hashing.Address, 0, len(v.accounts))
	for addr, a := range v.accounts {
		if a.w.written() || a.w.wiped || a.w.cleared {
			addrs = append(addrs, addr)
		}
	}
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})
	for _, addr := range addrs {
		w := &v.accounts[addr].w
		if w.wiped {
			st.DeleteAccount(addr)
		} else if w.cleared {
			st.WipeStorage(addr)
		}
		if w.codeSet {
			st.CreateContract(addr, w.code)
		}
		if w.nonceSet {
			st.SetNonce(addr, w.nonce)
		}
		if w.balSet {
			// Absolute base (wipe/import): displace whatever st holds.
			cur := st.GetBalance(addr)
			st.SubBalance(addr, cur)
			st.AddBalance(addr, w.balBase.Add(w.balAdd).Sub(w.balSub))
		} else if w.balTouched {
			st.AddBalance(addr, w.balAdd)
			st.SubBalance(addr, w.balSub)
		}
		if w.moveSet {
			st.SetMoveNonce(addr, w.moveNonce)
		}
		if w.locSet {
			st.SetLocation(addr, w.loc)
		}
	}
	keys := make([]viewSlotKey, 0, len(v.slots))
	for k, s := range v.slots {
		if !s.w.written {
			continue
		}
		if a, ok := v.accounts[k.addr]; ok && s.w.epoch != a.w.epoch {
			continue // buried by a later wipe
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if c := bytes.Compare(keys[i].addr[:], keys[j].addr[:]); c != 0 {
			return c < 0
		}
		return bytes.Compare(keys[i].key[:], keys[j].key[:]) < 0
	})
	for _, k := range keys {
		st.SetStorage(k.addr, k.key, v.slots[k].w.val)
	}
}
