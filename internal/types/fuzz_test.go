package types

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/iavl"
	"scmove/internal/keys"
	"scmove/internal/mpt"
	"scmove/internal/state"
	"scmove/internal/u256"
)

// TestDecodersSurviveRandomBytes feeds random byte strings to every decoder
// that handles untrusted input: none may panic; they must either decode or
// return an error. (Byzantine peers control these bytes.)
func TestDecodersSurviveRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	root := hashing.Sum([]byte("root"))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(256)
		buf := make([]byte, n)
		rng.Read(buf)

		if tx, err := DecodeTransaction(buf); err == nil && tx != nil {
			// Rarely decodable; if it decodes, it must re-encode.
			_ = tx.Encode()
		}
		if h, err := DecodeHeader(buf); err == nil && h != nil {
			_ = h.Hash()
		}
		if _, err := state.DecodeAccount(buf); err == nil {
			continue
		}
		if _, err := mpt.VerifyProof(root, buf); err == nil {
			t.Fatalf("random bytes verified as an MPT proof (len %d)", n)
		}
		if _, err := iavl.VerifyProof(root, buf); err == nil {
			t.Fatalf("random bytes verified as an IAVL proof (len %d)", n)
		}
	}
}

// TestDecodersSurviveTruncation encodes real values and replays every
// prefix through the decoders.
func TestDecodersSurviveTruncation(t *testing.T) {
	tx := &Transaction{
		ChainID: 1, Nonce: 9, Kind: TxMove2, GasLimit: 5,
		Move2: &Move2Payload{
			Contract:     hashing.AddressFromBytes([]byte{1}),
			SourceChain:  2,
			SourceHeight: 3,
			AccountProof: []byte{1, 2, 3, 4},
			Code:         []byte("code"),
			Storage:      []StorageEntry{{Key: [32]byte{1}, Value: [32]byte{2}}},
		},
	}
	enc := tx.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeTransaction(enc[:cut]); err == nil {
			t.Fatalf("truncated tx at %d decoded", cut)
		}
	}
	h := &Header{ChainID: 1, Height: 2, Time: 3}
	hEnc := h.Encode()
	for cut := 0; cut < len(hEnc); cut++ {
		if _, err := DecodeHeader(hEnc[:cut]); err == nil {
			t.Fatalf("truncated header at %d decoded", cut)
		}
	}
}

func mustKey(t *testing.T) *keys.KeyPair {
	t.Helper()
	return keys.Deterministic(77)
}

// fuzzSeedTx returns a signed transaction used to seed the decode fuzzers
// with a structurally valid encoding.
func fuzzSeedTx(tb testing.TB, kind TxKind) *Transaction {
	tb.Helper()
	tx := &Transaction{
		ChainID: 1, Nonce: 3, Kind: kind, GasLimit: 50_000, GasPrice: u256.One(),
		To:   hashing.AddressFromBytes([]byte{0x11}),
		Data: []byte("calldata"),
	}
	if kind == TxMove2 {
		tx.To = hashing.Address{}
		tx.Data = nil
		tx.Move2 = &Move2Payload{
			Contract:     hashing.AddressFromBytes([]byte{0x22}),
			SourceChain:  2,
			SourceHeight: 9,
			AccountProof: []byte{9, 8, 7},
			Code:         []byte("code"),
			Storage:      []StorageEntry{{Key: [32]byte{1}, Value: [32]byte{2}}},
		}
	}
	if err := tx.Sign(keys.Deterministic(77)); err != nil {
		tb.Fatal(err)
	}
	return tx
}

// fuzzSeedDelta is fuzzSeedTx's Move2 as a delta: a base, two deleted keys
// and no code.
func fuzzSeedDelta(tb testing.TB) *Transaction {
	tb.Helper()
	tx := fuzzSeedTx(tb, TxMove2)
	m := *tx.Move2
	m.Code, m.Base, m.Deleted = nil, hashing.Sum([]byte("base")), []evm.Word{{3}, {4}}
	signed := &Transaction{ChainID: tx.ChainID, Nonce: tx.Nonce, Kind: TxMove2, GasLimit: tx.GasLimit, GasPrice: tx.GasPrice, Move2: &m}
	if err := signed.Sign(keys.Deterministic(77)); err != nil {
		tb.Fatal(err)
	}
	return signed
}

// FuzzDecodeTransaction feeds arbitrary bytes to the transaction decoder:
// it must never panic, and anything it accepts must survive a re-encode /
// re-decode round trip with identical identity, re-encode to EncodedSize
// bytes exactly as the nested form does, and not alias the input.
func FuzzDecodeTransaction(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(fuzzSeedTx(f, TxCall).Encode())
	f.Add(fuzzSeedTx(f, TxMove2).Encode())
	f.Add(fuzzSeedDelta(f).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data) // the engine's input must not be written
		tx, err := DecodeTransaction(in)
		if err != nil {
			return
		}
		// Sender recovery must also tolerate whatever decoded (it parses the
		// embedded public key and signature scalars).
		_, _ = tx.Sender()
		enc := tx.Encode()
		if tx.EncodedSize() != len(enc) {
			t.Fatalf("EncodedSize %d, Encode wrote %d bytes", tx.EncodedSize(), len(enc))
		}
		if !bytes.Equal(enc, encodeNested(tx)) {
			t.Fatal("Encode differs from the nested form")
		}
		clear(in) // the decoded transaction keeps copies, never the input
		if !bytes.Equal(tx.Encode(), enc) {
			t.Fatal("the decoded transaction changed with its input")
		}
		tx2, err := DecodeTransaction(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted transaction failed: %v", err)
		}
		if tx2.ID() != tx.ID() {
			t.Fatalf("round trip changed identity: %s != %s", tx2.ID(), tx.ID())
		}
	})
}

// FuzzDecodeHeader feeds arbitrary bytes to the block-header decoder: no
// panic, and accepted headers round-trip to an identical struct.
func FuzzDecodeHeader(f *testing.F) {
	f.Add([]byte(nil))
	h := &Header{ChainID: 1, Height: 7, Time: 99,
		ParentHash: hashing.Sum([]byte("parent")), StateRoot: hashing.Sum([]byte("root"))}
	f.Add(h.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeader(data)
		if err != nil {
			return
		}
		_ = h.Hash()
		h2, err := DecodeHeader(h.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted header failed: %v", err)
		}
		if *h2 != *h {
			t.Fatalf("round trip changed header: %+v != %+v", h2, h)
		}
	})
}

// FuzzDecodeMove2Payload feeds arbitrary bytes to the standalone Move2
// payload decoder (the journal and hostile-ingest paths use it directly).
func FuzzDecodeMove2Payload(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeMove2Payload(fuzzSeedTx(f, TxMove2).Move2))
	f.Add(EncodeMove2Payload(fuzzSeedDelta(f).Move2))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMove2Payload(data)
		if err != nil {
			return
		}
		enc := EncodeMove2Payload(m)
		m2, err := DecodeMove2Payload(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted payload failed: %v", err)
		}
		if !reflect.DeepEqual(m2, m) || !bytes.Equal(EncodeMove2Payload(m2), enc) {
			t.Fatalf("round trip changed payload:\n %+v\n %+v", m, m2)
		}
	})
}

// TestTransactionBitFlipsNeverForgeSignatures flips every bit of an encoded
// signed transaction: decoding may fail, but a decoded transaction must
// never pass signature verification with altered content.
func TestTransactionBitFlipsNeverForgeSignatures(t *testing.T) {
	kp := mustKey(t)
	tx := &Transaction{ChainID: 1, Nonce: 1, Kind: TxCall, GasLimit: 5, Data: []byte("payload")}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	enc := tx.Encode()
	origID := tx.ID()
	for pos := 0; pos < len(enc); pos++ {
		mutated := append([]byte{}, enc...)
		mutated[pos] ^= 0x01
		got, err := DecodeTransaction(mutated)
		if err != nil {
			continue
		}
		if _, err := got.Sender(); err == nil && got.ID() != origID {
			t.Fatalf("bit flip at %d forged a valid signature for altered content", pos)
		}
	}
}
