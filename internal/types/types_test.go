package types

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"scmove/internal/codec"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/u256"
)

func mkTx(t *testing.T, kp *keys.KeyPair) *Transaction {
	t.Helper()
	tx := &Transaction{
		ChainID:  1,
		Nonce:    3,
		Kind:     TxCall,
		To:       hashing.AddressFromBytes([]byte{0xaa}),
		Value:    u256.FromUint64(10),
		GasLimit: 100000,
		GasPrice: u256.FromUint64(2),
		Data:     []byte("input"),
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTxSignAndSender(t *testing.T) {
	kp := keys.Deterministic(1)
	tx := mkTx(t, kp)
	sender, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if sender != kp.Address() {
		t.Fatalf("sender = %s, want %s", sender, kp.Address())
	}
}

func TestTxIDExcludesSignature(t *testing.T) {
	kp := keys.Deterministic(1)
	tx := mkTx(t, kp)
	id1 := tx.ID()
	if err := tx.Sign(kp); err != nil { // re-sign: the id is fixed again from the fields
		t.Fatal(err)
	}
	if tx.ID() != id1 {
		t.Fatal("tx id must not depend on the signature")
	}
}

func TestTxTamperDetected(t *testing.T) {
	kp := keys.Deterministic(1)
	tx := mkTx(t, kp)
	// A signed transaction is immutable in memory; tampering reaches a chain
	// as altered bytes, whose decoding fixes the id of the altered content.
	tx.Value = u256.FromUint64(999)
	forged, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := forged.Sender(); !errors.Is(err, ErrBadTxSignature) {
		t.Fatalf("want ErrBadTxSignature, got %v", err)
	}
}

// TestTxIDFixedBySignAndDecode pins where the id is fixed: Sign, SignOn and
// DecodeTransaction each leave exactly the hash of the signed fields, and
// signing again after an edit replaces it.
func TestTxIDFixedBySignAndDecode(t *testing.T) {
	kp := keys.Deterministic(1)
	tx := mkTx(t, kp)
	if tx.id.IsZero() || tx.id != tx.computeID() || tx.ID() != tx.id {
		t.Fatalf("Sign left id %s, fields hash to %s", tx.id, tx.computeID())
	}
	dec, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.id != tx.id {
		t.Fatalf("decoded id %s, signed %s", dec.id, tx.id)
	}
	tx.Nonce++
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if tx.ID() == dec.ID() || tx.ID() != tx.computeID() {
		t.Fatal("signing again must fix the id of the new content")
	}
	tx.Nonce++
	tx.SignOn(kp, nil)
	if tx.ID() != tx.computeID() {
		t.Fatal("SignOn must fix the id before the signature lands")
	}
	if err := tx.WaitSig(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Sender(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSignatureIsKept puts a failed result on a pending SignOn
// transaction by hand. While pending, its sender is From; once the result
// is in, every WaitSig reports the failure (not only the first), the
// encoding carries no signature, and Sender no longer trusts From.
func TestFailedSignatureIsKept(t *testing.T) {
	kp := keys.Deterministic(4)
	tx := &Transaction{ChainID: 1, Nonce: 1, Kind: TxCall, From: kp.Address(), GasLimit: 21_000}
	tx.id = tx.computeID()
	done := make(chan error, 1)
	tx.pending = &pendingSig{done: done}
	if addr, err := tx.Sender(); err != nil || addr != kp.Address() {
		t.Fatalf("pending signature: sender (%s, %v), want From", addr, err)
	}
	boom := errors.New("worker failed")
	done <- boom
	for i := 0; i < 2; i++ {
		if err := tx.WaitSig(); !errors.Is(err, boom) {
			t.Fatalf("WaitSig call %d: %v, want the worker's error", i+1, err)
		}
	}
	dec, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Sig.PubKey)+len(dec.Sig.R)+len(dec.Sig.S) != 0 {
		t.Fatal("a failed signature must encode empty")
	}
	if _, err := tx.Sender(); !errors.Is(err, ErrBadTxSignature) {
		t.Fatalf("sender after a failed signature: %v, want ErrBadTxSignature", err)
	}
}

func TestTxValidateChainBinding(t *testing.T) {
	kp := keys.Deterministic(1)
	tx := mkTx(t, kp)
	if err := tx.ValidateStateless(1); err != nil {
		t.Fatal(err)
	}
	if from, err := tx.Sender(); err != nil || from != kp.Address() {
		t.Fatalf("sender (%s, %v), want %s", from, err, kp.Address())
	}
	if err := tx.ValidateStateless(2); !errors.Is(err, ErrTxChainID) {
		t.Fatalf("want ErrTxChainID, got %v", err)
	}
}

func TestMove2RequiresPayload(t *testing.T) {
	kp := keys.Deterministic(1)
	tx := &Transaction{ChainID: 1, Kind: TxMove2, GasLimit: 1}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if err := tx.ValidateStateless(1); !errors.Is(err, ErrMissingPayload) {
		t.Fatalf("want ErrMissingPayload, got %v", err)
	}
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	kp := keys.Deterministic(2)
	tx := mkTx(t, kp)
	tx.Kind = TxMove2
	tx.Move2 = &Move2Payload{
		Contract:     hashing.AddressFromBytes([]byte{0xbb}),
		SourceChain:  9,
		SourceHeight: 42,
		AccountProof: []byte{1, 2, 3},
		Code:         []byte("code"),
		Storage: []StorageEntry{
			{Key: evm.Word{1}, Value: evm.Word{2}},
			{Key: evm.Word{3}, Value: evm.Word{4}},
		},
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != tx.ID() {
		t.Fatal("round trip must preserve the id")
	}
	if got.Move2 == nil || got.Move2.SourceHeight != 42 || len(got.Move2.Storage) != 2 {
		t.Fatalf("payload lost: %+v", got.Move2)
	}
	if !bytes.Equal(got.Move2.Code, []byte("code")) {
		t.Fatal("code lost")
	}
	if _, err := got.Sender(); err != nil {
		t.Fatalf("decoded signature must verify: %v", err)
	}
}

func TestDecodeTransactionRejectsGarbage(t *testing.T) {
	if _, err := DecodeTransaction([]byte{0xff, 0x01}); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestHeaderRoundTripAndHash(t *testing.T) {
	h := &Header{
		ChainID:    2,
		Height:     7,
		ParentHash: hashing.Sum([]byte("parent")),
		StateRoot:  hashing.Sum([]byte("state")),
		TxRoot:     hashing.Sum([]byte("txs")),
		Time:       1234,
		Proposer:   hashing.AddressFromBytes([]byte{0x01}),
		GasUsed:    5,
		GasLimit:   10,
		Difficulty: u256.FromUint64(1000),
		Nonce:      77,
	}
	got, err := DecodeHeader(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
	}
	if got.Hash() != h.Hash() {
		t.Fatal("hashes must match")
	}
	got.Height++
	if got.Hash() == h.Hash() {
		t.Fatal("distinct headers must hash differently")
	}
}

func TestTxRootSensitiveToOrderAndContent(t *testing.T) {
	kp := keys.Deterministic(3)
	tx1 := mkTx(t, kp)
	tx2 := mkTx(t, kp)
	tx2.Nonce = 4
	if err := tx2.Sign(kp); err != nil {
		t.Fatal(err)
	}
	r12 := TxRoot([]*Transaction{tx1, tx2})
	r21 := TxRoot([]*Transaction{tx2, tx1})
	if r12 == r21 {
		t.Fatal("tx root must be order-sensitive")
	}
	if TxRoot(nil) == r12 {
		t.Fatal("empty root must differ")
	}
	if TxRoot(nil) != TxRoot([]*Transaction{}) {
		t.Fatal("nil and empty lists must agree")
	}
}

// TestHashedEncodingsPinned: a header is hashed from a stack array and a
// tx root from a pooled hasher, and both must hash the bytes the codec
// writer produced for them (the values are pinned from it). The widest
// header fills maxHeaderSize exactly, and hashing a header allocates
// nothing.
func TestHashedEncodingsPinned(t *testing.T) {
	widest := &Header{ChainID: math.MaxUint64, Height: math.MaxUint64, ParentHash: hashing.Sum([]byte("p")),
		StateRoot: hashing.Sum([]byte("s")), TxRoot: hashing.Sum([]byte("t")), Time: math.MaxUint64,
		Proposer: hashing.AddressFromBytes([]byte{0xff}), GasUsed: math.MaxUint64, GasLimit: math.MaxUint64,
		Difficulty: u256.FromBytes(bytes.Repeat([]byte{0xff}, 32)), Nonce: math.MaxUint64}
	for _, c := range []struct {
		h    *Header
		want string
	}{
		{widest, "0x3788dda233dbd5c74f55ac7ce9be5e012e8a5c58e17cdc58f7331011b3625521"},
		{&Header{}, "0xf911d00c6d988eeb76aa722c8c01f0c9b77d90f0bd23da5dc056f4dab1860896"},
	} {
		if got := c.h.Hash(); got.Hex() != c.want || got != hashing.Sum(c.h.Encode()) {
			t.Fatalf("header %+v hashes to %s, want %s", c.h, got.Hex(), c.want)
		}
	}
	if n := len(widest.Encode()); n != maxHeaderSize {
		t.Fatalf("the widest header encodes to %d bytes, maxHeaderSize is %d", n, maxHeaderSize)
	}
	kp := keys.Deterministic(3)
	tx1 := mkTx(t, kp)
	tx2 := mkTx(t, kp)
	tx2.Nonce = 4
	if err := tx2.Sign(kp); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		txs  []*Transaction
		want string
	}{
		{[]*Transaction{tx1, tx2}, "0x3e387b7883757467ad9a691096dc271e1d0a1dd3a36eb7d9ae6b34e767ffaab4"},
		{nil, "0x6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
	} {
		if got := TxRoot(c.txs).Hex(); got != c.want {
			t.Fatalf("TxRoot of %d txs is %s, want %s", len(c.txs), got, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { widest.Hash() }); allocs != 0 {
		t.Fatalf("Header.Hash allocates %.1f objects", allocs)
	}
}

func TestReceiptSucceeded(t *testing.T) {
	r := Receipt{Status: ReceiptSuccess}
	if !r.Succeeded() {
		t.Fatal("success receipt")
	}
	r.Status = ReceiptFailed
	if r.Succeeded() {
		t.Fatal("failed receipt")
	}
}

// encodeUnsigned is the unsigned body on its own, in a writer grown from 256
// bytes as it was first written: its length is what it is, not what
// unsignedSize says.
func (tx *Transaction) encodeUnsigned() []byte {
	w := codec.NewWriter(256)
	tx.writeUnsigned(w)
	return w.Bytes()
}

// encodeNested is Encode as it was first written — the unsigned body
// encoded on its own, then copied behind its length — kept as the reference
// the one-buffer encoder must match byte for byte.
func encodeNested(tx *Transaction) []byte {
	w := codec.NewWriter(320)
	w.WriteBytes(tx.encodeUnsigned())
	w.WriteBytes(tx.Sig.PubKey)
	w.WriteBytes(tx.Sig.R)
	w.WriteBytes(tx.Sig.S)
	return w.Bytes()
}

// TestEncodeMatchesNestedForm holds Encode to the nested form, and
// EncodedSize to its length, on transactions whose unsigned bodies straddle
// the one-, two- and three-byte length prefixes, and pins Encode at one
// allocation: the buffer it returns.
func TestEncodeMatchesNestedForm(t *testing.T) {
	kp := keys.Deterministic(2)
	var txs []*Transaction
	for _, n := range []int{0, 1, 100, 127, 128, 16_300, 16_383, 16_384} {
		tx := mkTx(t, kp)
		tx.Data = make([]byte, n)
		txs = append(txs, tx)
	}
	for _, slots := range []int{0, 1, 255, 1000} {
		tx := fuzzSeedTx(t, TxMove2)
		tx.Move2.Storage = make([]StorageEntry, slots)
		txs = append(txs, tx)
	}
	for _, tx := range txs {
		if err := tx.Sign(kp); err != nil {
			t.Fatal(err)
		}
		got, want := tx.Encode(), encodeNested(tx)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d data bytes: Encode differs from the nested form", len(tx.Data))
		}
		if tx.EncodedSize() != len(got) || cap(got) != len(got) {
			t.Fatalf("%d data bytes: EncodedSize %d, encoding %d bytes in a %d-byte buffer",
				len(tx.Data), tx.EncodedSize(), len(got), cap(got))
		}
	}
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	for _, tx := range []*Transaction{txs[0], txs[len(txs)-1]} {
		if a := testing.AllocsPerRun(20, func() { tx.Encode() }); a != 1 {
			t.Fatalf("Encode of a %s allocates %.1f times, want 1", tx.Kind, a)
		}
	}
}

// TestIDMatchesUnsignedEncoding pins hashUnsigned to writeUnsigned: ID is
// computed from a streaming hasher for speed, and the two encodings must
// never drift apart or every stored transaction id would change.
func TestIDMatchesUnsignedEncoding(t *testing.T) {
	txs := []*Transaction{
		{},
		{
			ChainID:  7,
			Nonce:    42,
			Kind:     TxCreate,
			From:     hashing.AddressFromBytes([]byte{0x01, 0x02}),
			To:       hashing.AddressFromBytes([]byte{0xbe, 0xef}),
			Value:    u256.FromUint64(12345),
			GasLimit: 1 << 30,
			GasPrice: u256.FromUint64(99),
			Data:     bytes.Repeat([]byte{0xab}, 300),
		},
		{
			ChainID: 2,
			Kind:    TxMove2,
			Move2: &Move2Payload{
				Contract:     hashing.AddressFromBytes([]byte{0x11}),
				SourceChain:  9,
				SourceHeight: 1 << 40,
				AccountProof: []byte("proof-bytes"),
				Code:         []byte("code-bytes"),
				Storage: []StorageEntry{
					{Key: evm.Word{1}, Value: evm.Word{2}},
					{Key: evm.Word{3}, Value: evm.Word{4}},
				},
			},
		},
		{
			ChainID: 2,
			Kind:    TxMove2,
			Move2: &Move2Payload{
				Contract:     hashing.AddressFromBytes([]byte{0x11}),
				SourceChain:  9,
				SourceHeight: 12,
				AccountProof: []byte("proof-bytes"),
				Storage:      []StorageEntry{{Key: evm.Word{3}, Value: evm.Word{5}}},
				Base:         hashing.Sum([]byte("base")),
				Deleted:      []evm.Word{{1}, {7}},
			},
		},
	}
	for i, tx := range txs {
		if got, want := tx.ID(), hashing.Sum(tx.encodeUnsigned()); got != want {
			t.Errorf("tx %d: ID() = %s, want Sum(encodeUnsigned()) = %s", i, got, want)
		}
	}
}
