// Package types defines the on-chain data structures shared by every
// blockchain in the system: transactions (including the Move2 payload),
// block headers, blocks, and execution receipts.
package types

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"scmove/internal/codec"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/u256"
)

// TxKind distinguishes transaction flavors.
type TxKind uint8

const (
	// TxCall invokes a contract (or transfers value to an account). Move1
	// is an ordinary TxCall that reaches the contract's moveTo method.
	TxCall TxKind = iota + 1
	// TxCreate deploys the code carried in Data.
	TxCreate
	// TxMove2 completes a move: it carries the Merkle proof of a contract's
	// state on the source chain and recreates it locally (paper Alg. 1).
	TxMove2
)

// String implements fmt.Stringer.
func (k TxKind) String() string {
	switch k {
	case TxCall:
		return "call"
	case TxCreate:
		return "create"
	case TxMove2:
		return "move2"
	default:
		return "unknown"
	}
}

// StorageEntry is one storage key-value pair carried in a Move2 payload.
type StorageEntry = evm.StorageEntry

// Move2Payload is the proof bundle of a Move2 transaction: everything the
// target chain needs to verify V ↦ m and recreate contract c (§III-C,E).
//
// A payload is full or a delta (DESIGN §17.11). A full payload carries the
// code and the complete storage. A delta names, in Base, the target's copy
// of the contract it was computed against, and carries only what differs
// from that copy: the entries whose values changed or are new, the keys
// deleted since, and the code only when the copy's code hash is not the
// proven one. The target merges the delta into its copy and verifies the
// merge exactly as it verifies a full payload's storage. A full payload is
// a delta against nothing: Base is zero and the encoding ends after
// Storage, as it always did.
type Move2Payload struct {
	// Contract is the identifier of the moved contract c.
	Contract hashing.Address
	// SourceChain is Bi, the chain the contract is moving from.
	SourceChain hashing.ChainID
	// SourceHeight is the block height whose state root the proof targets.
	SourceHeight uint64
	// AccountProof proves the contract's account record against the source
	// state root m.
	AccountProof []byte
	// Code is the contract code; H(Code) must match the proven record. A
	// delta leaves it empty to mean the base copy's code.
	Code []byte
	// Storage is the complete storage V, strictly ascending by key; the
	// target rebuilds the storage tree and compares its root with the proven
	// record (completeness). A delta carries only the entries whose values
	// differ from the base copy's, ascending.
	Storage []StorageEntry
	// Base is zero in a full payload. In a delta it is the storage root of
	// the target's copy of the contract, in the target's tree kind: the copy
	// the delta was computed against.
	Base hashing.Hash
	// Deleted lists, strictly ascending, the keys the base copy holds and
	// the source no longer does. Empty in a full payload.
	Deleted []evm.Word
}

// IsDelta reports whether m is a delta against the target's copy rather
// than a full payload.
func (m *Move2Payload) IsDelta() bool { return !m.Base.IsZero() }

// Transaction is a signed message submitted to one chain.
//
// A transaction is immutable once Sign, SignOn or DecodeTransaction has
// produced it: those three fix its identifier, and ID returns that value
// from then on. Code that changes a signed field afterwards must sign again
// (or go through Encode and DecodeTransaction, as bytes on the wire do).
type Transaction struct {
	// ChainID pins the transaction to its destination chain so it cannot be
	// replayed on another chain.
	ChainID hashing.ChainID
	Nonce   uint64
	Kind    TxKind
	// From is the sender; Sign fills it in and Sender verifies that the
	// signature was produced by this address.
	From     hashing.Address
	To       hashing.Address // ignored for TxCreate
	Value    u256.Int
	GasLimit uint64
	GasPrice u256.Int
	Data     []byte
	Move2    *Move2Payload // only for TxMove2

	Sig keys.Signature

	// id is the identifier fixed by Sign, SignOn or DecodeTransaction — each
	// writes it before the transaction is shared, so readers need no
	// synchronization. Zero on a transaction built by hand, whose ID hashes
	// on every call.
	id hashing.Hash

	// verifiedID caches the tx id whose signature already checked out, so
	// pools and executors do not repeat the ECDSA verification for the same
	// content (mutating any signed field changes the id and voids the memo).
	verifiedID hashing.Hash

	// pending is non-nil from SignOn until WaitSig received a signature; a
	// failed one stays, so every later WaitSig (and every encoding) sees
	// its error.
	pending *pendingSig
}

// pendingSig is a SignOn signature: the worker sends its result on done
// once, and WaitSig receives it and keeps a failure in err. It is its own
// object, allocated by SignOn only, so that every other Transaction —
// decoded copies included — stays in its 320-byte size class.
type pendingSig struct {
	done chan error
	err  error
}

// Errors returned by transaction validation.
var (
	ErrBadTxSignature = errors.New("types: invalid transaction signature")
	ErrTxChainID      = errors.New("types: transaction bound to another chain")
	ErrMissingPayload = errors.New("types: move2 transaction without payload")
)

// unsignedSize is the number of bytes writeUnsigned writes, computed from
// the field lengths alone.
func (tx *Transaction) unsignedSize() int {
	n := codec.SizeUvarint(uint64(tx.ChainID)) + codec.SizeUvarint(tx.Nonce) +
		codec.SizeUvarint(uint64(tx.Kind)) + 2*hashing.AddressSize + 32 +
		codec.SizeUvarint(tx.GasLimit) + 32 + codec.SizeBytes(len(tx.Data)) + 1
	if m := tx.Move2; m != nil {
		n += move2Size(m)
	}
	return n
}

// writeUnsigned appends the encoding of every field covered by the
// signature to w.
func (tx *Transaction) writeUnsigned(w *codec.Writer) {
	w.WriteUvarint(uint64(tx.ChainID))
	w.WriteUvarint(tx.Nonce)
	w.WriteUvarint(uint64(tx.Kind))
	w.WriteAddress(tx.From)
	w.WriteAddress(tx.To)
	w.WriteWord(tx.Value.Bytes32())
	w.WriteUvarint(tx.GasLimit)
	w.WriteWord(tx.GasPrice.Bytes32())
	w.WriteBytes(tx.Data)
	if tx.Move2 != nil {
		w.WriteBool(true)
		encodeMove2(w, tx.Move2)
	} else {
		w.WriteBool(false)
	}
}

// move2Size is the length of encodeMove2's output.
func move2Size(m *Move2Payload) int {
	n := hashing.AddressSize + codec.SizeUvarint(uint64(m.SourceChain)) +
		codec.SizeUvarint(m.SourceHeight) + codec.SizeBytes(len(m.AccountProof)) +
		codec.SizeBytes(len(m.Code)) + codec.SizeUvarint(uint64(len(m.Storage))) +
		storageEntrySize*len(m.Storage)
	if m.IsDelta() {
		n += hashing.HashSize + codec.SizeUvarint(uint64(len(m.Deleted))) + 32*len(m.Deleted)
	}
	return n
}

func encodeMove2(w *codec.Writer, m *Move2Payload) {
	w.WriteAddress(m.Contract)
	w.WriteUvarint(uint64(m.SourceChain))
	w.WriteUvarint(m.SourceHeight)
	w.WriteBytes(m.AccountProof)
	w.WriteBytes(m.Code)
	w.WriteUvarint(uint64(len(m.Storage)))
	for _, e := range m.Storage {
		w.WriteWord(e.Key)
		w.WriteWord(e.Value)
	}
	// A delta's fields follow Storage; a full payload ends there.
	if m.IsDelta() {
		w.WriteHash(m.Base)
		w.WriteUvarint(uint64(len(m.Deleted)))
		for _, k := range m.Deleted {
			w.WriteWord(k)
		}
	}
}

// storageEntrySize is the encoded size of one StorageEntry (two 32-byte
// words); decoders use it to bound preallocation from a hostile count.
const storageEntrySize = 64

// maxMove2Entries bounds the entries and the deleted keys a decoded payload
// may claim.
const maxMove2Entries = 1 << 20

// errOversizedMove2 and errZeroBase refuse payloads whose bytes parse: a
// count above maxMove2Entries, and delta fields that name no base (a full
// payload ends after Storage).
var (
	errOversizedMove2 = errors.New("oversized storage set")
	errZeroBase       = errors.New("delta fields with a zero base")
)

// decodeMove2 reads an encodeMove2 encoding that runs to the end of r: the
// bytes left after Storage, if any, are a delta's fields.
func decodeMove2(r *codec.Reader) (*Move2Payload, error) {
	var m Move2Payload
	m.Contract = r.ReadAddress()
	m.SourceChain = hashing.ChainID(r.ReadUvarint())
	m.SourceHeight = r.ReadUvarint()
	m.AccountProof = r.ReadBytes()
	m.Code = r.ReadBytes()
	n := r.ReadUvarint()
	if n > maxMove2Entries {
		return nil, errOversizedMove2
	}
	// Preallocate at most what the remaining input could actually hold: a
	// corrupted count costs O(remaining) memory, never O(claimed) — the
	// loop below then fails with ErrTruncated as soon as the input runs dry.
	m.Storage = make([]StorageEntry, 0, r.CapCount(n, storageEntrySize))
	for i := uint64(0); i < n; i++ {
		var e StorageEntry
		e.Key = r.ReadWord()
		e.Value = r.ReadWord()
		if r.Err() != nil {
			return nil, r.Err()
		}
		m.Storage = append(m.Storage, e)
	}
	if r.Remaining() == 0 || r.Err() != nil {
		return &m, r.Err()
	}
	if m.Base = r.ReadHash(); m.Base.IsZero() {
		return nil, errZeroBase
	}
	if n = r.ReadUvarint(); n > maxMove2Entries {
		return nil, errOversizedMove2
	}
	m.Deleted = make([]evm.Word, 0, r.CapCount(n, 32))
	for i := uint64(0); i < n; i++ {
		k := r.ReadWord()
		if r.Err() != nil {
			return nil, r.Err()
		}
		m.Deleted = append(m.Deleted, k)
	}
	return &m, r.Err()
}

// EncodeMove2Payload serializes a standalone Move2 payload (the relay
// journal persists in-flight payloads between crash and recovery).
func EncodeMove2Payload(m *Move2Payload) []byte {
	w := codec.NewWriter(move2Size(m))
	encodeMove2(w, m)
	return w.Bytes()
}

// DecodeMove2Payload parses a standalone Move2 payload encoding.
func DecodeMove2Payload(b []byte) (*Move2Payload, error) {
	r := codec.NewReader(b)
	m, err := decodeMove2(r)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		return nil, fmt.Errorf("decode move2 payload: %w", err)
	}
	return m, nil
}

// CheckID panics, under go test only, when tx's id is fixed and a field it
// covers has changed since Sign, SignOn or DecodeTransaction fixed it: the
// memo would then name content the transaction no longer has, and the
// verifiedID beside it would vouch for a sender nobody checked. A pool
// calls it as it admits a transaction and a chain as it applies a block.
func (tx *Transaction) CheckID() {
	if testing.Testing() && !tx.id.IsZero() {
		if got := tx.computeID(); got != tx.id {
			panic(fmt.Sprintf("types: transaction %s was changed after it was signed (its fields hash to %s)", tx.id, got))
		}
	}
}

// ID returns the transaction identifier: the hash of the unsigned encoding.
// Signatures are excluded so the id is stable under re-signing, keeping
// block hashes deterministic in simulations.
//
// A signed or decoded transaction carries its id (a Move2 is ≈ 65 KiB to
// hash, and pool, proposer, executor and receipt all ask for it); only
// hand-built transactions hash here.
func (tx *Transaction) ID() hashing.Hash {
	if !tx.id.IsZero() {
		return tx.id
	}
	return tx.computeID()
}

// computeID hashes the signed fields through a pooled hasher rather than by
// materializing writeUnsigned's output. hashUnsigned must stay byte-identical
// to writeUnsigned.
func (tx *Transaction) computeID() hashing.Hash {
	h := hashing.AcquireHasher()
	tx.hashUnsigned(h)
	id := h.Sum()
	hashing.ReleaseHasher(h)
	return id
}

// hashUnsigned feeds the signed-field encoding into h, mirroring
// writeUnsigned byte for byte (TestIDMatchesUnsignedEncoding holds the two
// in lockstep).
func (tx *Transaction) hashUnsigned(h *hashing.Hasher) {
	h.Uvarint(uint64(tx.ChainID))
	h.Uvarint(tx.Nonce)
	h.Uvarint(uint64(tx.Kind))
	h.Write(tx.From[:])
	h.Write(tx.To[:])
	val := tx.Value.Bytes32()
	h.Write(val[:])
	h.Uvarint(tx.GasLimit)
	gp := tx.GasPrice.Bytes32()
	h.Write(gp[:])
	h.LenPrefixed(tx.Data)
	if tx.Move2 != nil {
		h.Byte(1)
		m := tx.Move2
		h.Write(m.Contract[:])
		h.Uvarint(uint64(m.SourceChain))
		h.Uvarint(m.SourceHeight)
		h.LenPrefixed(m.AccountProof)
		h.LenPrefixed(m.Code)
		h.Uvarint(uint64(len(m.Storage)))
		for _, e := range m.Storage {
			h.Write(e.Key[:])
			h.Write(e.Value[:])
		}
		if m.IsDelta() {
			h.Write(m.Base[:])
			h.Uvarint(uint64(len(m.Deleted)))
			for _, k := range m.Deleted {
				h.Write(k[:])
			}
		}
	} else {
		h.Byte(0)
	}
}

// Sign sets From to the key's address and signs the transaction.
func (tx *Transaction) Sign(kp *keys.KeyPair) error {
	tx.From = kp.Address()
	id := tx.computeID()
	tx.id = id
	sig, err := kp.Sign(id)
	if err != nil {
		return fmt.Errorf("sign tx: %w", err)
	}
	tx.Sig = sig
	tx.verifiedID = id // freshly produced by the key for this content
	return nil
}

// SignOn is Sign with the ECDSA work deferred to a worker pool: From and
// the transaction id are fixed synchronously (so the id, and everything
// derived from it, is identical to the inline path), while the signature is
// produced concurrently. The transaction can be admitted to a pool at once:
// its sender is From by construction. Whoever reads the signature waits
// first — WaitSig, or Encode, which waits itself; a chain waits when a
// proposal selects the transaction. A nil pool falls back to the shared
// pool.
func (tx *Transaction) SignOn(kp *keys.KeyPair, pool *keys.Pool) {
	tx.From = kp.Address()
	id := tx.computeID()
	tx.id = id
	done := make(chan error, 1)
	tx.pending = &pendingSig{done: done}
	if pool == nil {
		pool = keys.SharedPool()
	}
	pool.Go(func() {
		sig, err := kp.Sign(id)
		if err != nil {
			done <- fmt.Errorf("sign tx: %w", err)
			return
		}
		tx.Sig = sig
		done <- nil
		// A WaitSig caller parked on done (usually the event loop) is now
		// next in line on this worker's P, where it would sit until the
		// scheduler preempts the worker, up to 10 ms while jobs are queued.
		// Yield so it runs now.
		runtime.Gosched()
	})
}

// WaitSig blocks until a pending SignOn signature lands and returns its
// error. The channel receive orders the worker's write of Sig before the
// caller's reads; the memo is seeded here, on the caller's goroutine, so
// the worker shares no field but Sig. After the
// first call, or if SignOn was never used, it returns the same result
// without blocking.
func (tx *Transaction) WaitSig() error { return tx.WaitSigCounted(metrics.Wait{}) }

// WaitSigCounted is WaitSig that counts into w the time it blocks.
func (tx *Transaction) WaitSigCounted(w metrics.Wait) error {
	p := tx.pending
	if p == nil {
		return nil
	}
	if p.done != nil {
		p.err = metrics.Recv(w, p.done)
		p.done = nil
		if p.err == nil {
			tx.pending = nil
			tx.verifiedID = tx.id // freshly produced by the key for this content
		}
	}
	return p.err
}

// Sender verifies the signature and returns the signer's address.
//
// Two tiers, cheapest first: the per-object verifiedID memo (this pointer
// already verified), then the full ECDSA verification, whose success sets
// the memo. A copy of a transaction (decoded from bytes) carries no memo
// and verifies afresh.
func (tx *Transaction) Sender() (hashing.Address, error) {
	if addr, ok := tx.knownSender(); ok {
		return addr, nil
	}
	return tx.verifySender()
}

// knownSender is Sender's cheap tier: the verifiedID memo. It reports false
// when only a full verification can decide. While a SignOn signature is
// pending the sender is From, the address of the key producing it, and no
// field the worker writes is read.
func (tx *Transaction) knownSender() (hashing.Address, bool) {
	if p := tx.pending; p != nil && p.done != nil {
		return tx.From, true
	}
	if !tx.verifiedID.IsZero() && tx.verifiedID == tx.ID() {
		return tx.From, true
	}
	return hashing.Address{}, false
}

// verifySender is Sender's ECDSA tier, run after knownSender missed.
func (tx *Transaction) verifySender() (hashing.Address, error) {
	addr, err := tx.Sig.Verify(tx.ID())
	return tx.acceptSender(addr, err)
}

// acceptSender turns one signature verification's result into the sender,
// holding the signer to From; a success seeds the verifiedID memo.
func (tx *Transaction) acceptSender(addr hashing.Address, err error) (hashing.Address, error) {
	if err != nil {
		return hashing.Address{}, fmt.Errorf("%w: %v", ErrBadTxSignature, err)
	}
	if addr != tx.From {
		return hashing.Address{}, fmt.Errorf("%w: signer %s does not match From %s", ErrBadTxSignature, addr, tx.From)
	}
	tx.verifiedID = tx.ID()
	return addr, nil
}

// ValidateStateless performs the checks that need no cryptography: chain
// binding and payload shape. Callers that also need the sender recovered
// (every admission path) follow up with Sender, which memoizes.
func (tx *Transaction) ValidateStateless(chain hashing.ChainID) error {
	if tx.ChainID != chain {
		return fmt.Errorf("%w: tx for %s, chain is %s", ErrTxChainID, tx.ChainID, chain)
	}
	if tx.Kind == TxMove2 && tx.Move2 == nil {
		return ErrMissingPayload
	}
	return nil
}

// Encode serializes the full signed transaction into one buffer of exactly
// EncodedSize bytes.
func (tx *Transaction) Encode() []byte {
	w := codec.NewWriter(tx.EncodedSize())
	tx.EncodeTo(w)
	return w.Bytes()
}

// encodeWait counts the times EncodedSize and EncodeTo block on a pending
// SignOn signature: a corrupting submission link encodes the transaction
// as the client submits it, before any worker may have signed it.
var encodeWait = metrics.Process.Wait(metrics.LoopWaitPrefix + "sig.encode")

// EncodedSize returns len(tx.Encode()) without encoding anything. Like
// EncodeTo it first waits for a pending SignOn signature; one that failed
// leaves Sig empty, which no admission accepts.
func (tx *Transaction) EncodedSize() int {
	_ = tx.WaitSigCounted(encodeWait)
	return codec.SizeBytes(tx.unsignedSize()) + codec.SizeBytes(len(tx.Sig.PubKey)) +
		codec.SizeBytes(len(tx.Sig.R)) + codec.SizeBytes(len(tx.Sig.S))
}

// EncodeTo appends tx.Encode() to w, writing each byte once: the unsigned
// body goes straight into w behind its precomputed length.
func (tx *Transaction) EncodeTo(w *codec.Writer) {
	_ = tx.WaitSigCounted(encodeWait)
	size := tx.unsignedSize()
	w.WriteUvarint(uint64(size))
	start := w.Len()
	tx.writeUnsigned(w)
	if got := w.Len() - start; got != size {
		panic(fmt.Sprintf("types: unsigned body is %d bytes, its prefix says %d", got, size))
	}
	w.WriteBytes(tx.Sig.PubKey)
	w.WriteBytes(tx.Sig.R)
	w.WriteBytes(tx.Sig.S)
}

// Maximum encoded sizes of the ECDSA P-256 signature fields (generous over
// the real 65/32/32 bytes); longer claims are rejected before allocating.
const (
	maxPubKeyLen   = 96
	maxSigScalarLn = 48
)

// DecodeTransaction parses an encoded signed transaction. The unsigned body
// is parsed where it lies in b; only the fields the transaction keeps are
// copied out, so b may be reused once it returns.
func DecodeTransaction(b []byte) (*Transaction, error) {
	r := codec.NewReader(b)
	unsigned := r.ReadBytesView()
	var tx Transaction
	tx.Sig.PubKey = r.ReadBytesMax(maxPubKeyLen)
	tx.Sig.R = r.ReadBytesMax(maxSigScalarLn)
	tx.Sig.S = r.ReadBytesMax(maxSigScalarLn)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decode tx: %w", err)
	}
	ur := codec.NewReader(unsigned)
	tx.ChainID = hashing.ChainID(ur.ReadUvarint())
	tx.Nonce = ur.ReadUvarint()
	tx.Kind = TxKind(ur.ReadUvarint())
	tx.From = ur.ReadAddress()
	tx.To = ur.ReadAddress()
	val := ur.ReadWord()
	tx.Value = u256.FromBytes(val[:])
	tx.GasLimit = ur.ReadUvarint()
	gp := ur.ReadWord()
	tx.GasPrice = u256.FromBytes(gp[:])
	tx.Data = ur.ReadBytes()
	if ur.ReadBool() {
		m, err := decodeMove2(ur)
		if err != nil {
			return nil, fmt.Errorf("decode tx: move2 payload: %w", err)
		}
		tx.Move2 = m
	}
	if err := ur.Finish(); err != nil {
		return nil, fmt.Errorf("decode tx: %w", err)
	}
	// Hash the decoded fields, not the received bytes: the id must not depend
	// on how a sender chose to encode them.
	tx.id = tx.computeID()
	return &tx, nil
}
