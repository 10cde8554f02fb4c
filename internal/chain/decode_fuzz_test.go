package chain

import (
	"bytes"
	"runtime"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// allocBound is what decoding n bytes of untrusted input may allocate: a
// fixed part for the result's headers, plus a constant factor of the input,
// never anything a length or count prefix merely claims. A transaction
// encodes to at least two addresses and two words (over 100 bytes) and a
// header to three hashes, and neither decodes to more than a few times that.
func allocBound(n int) uint64 { return 16*uint64(n) + 4096 }

// allocated runs decode and returns the bytes the heap grew by meanwhile.
// Like testing.AllocsPerRun it runs at GOMAXPROCS 1, so that what other
// goroutines allocate meanwhile (the fuzzing engine's, under -fuzz) is not
// counted as the decoder's.
func allocated(decode func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeTxList feeds arbitrary bytes to the consensus payload decoder,
// which a Byzantine proposer can get decided: no panic, allocation bounded
// by the input length, and an accepted list re-encodes to bytes that decode
// to the same transactions.
func FuzzDecodeTxList(f *testing.F) {
	kp := keys.Deterministic(3)
	var txs []*types.Transaction
	for i, kind := range []types.TxKind{types.TxCall, types.TxCreate, types.TxMove2, types.TxMove2} {
		tx := &types.Transaction{ChainID: 1, Nonce: uint64(i), Kind: kind, GasLimit: 21_000,
			To: hashing.AddressFromBytes([]byte{9}), Value: u256.FromUint64(5), Data: []byte("data")}
		if kind == types.TxMove2 {
			tx.Move2 = &types.Move2Payload{Contract: hashing.AddressFromBytes([]byte{7}), SourceChain: 2}
		}
		if i == 3 { // a delta: a base and a deleted key
			tx.Move2.Base, tx.Move2.Deleted = hashing.Sum([]byte("base")), []evm.Word{{4}}
		}
		if err := tx.Sign(kp); err != nil {
			f.Fatal(err)
		}
		txs = append(txs, tx)
	}
	f.Add([]byte(nil))
	f.Add(EncodeTxList(nil))
	f.Add(EncodeTxList(txs[:1]))
	f.Add(EncodeTxList(txs[:3]))
	f.Add(EncodeTxList(txs))
	f.Add([]byte{0x80, 0x80, 0x40}) // a count of 2^20 over no input
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []*types.Transaction
		var err error
		if n := allocated(func() { got, err = DecodeTxList(data) }); n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		enc := EncodeTxList(got)
		again, err := DecodeTxList(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted list failed: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("round trip changed the list length: %d != %d", len(again), len(got))
		}
		for i := range got {
			if again[i].ID() != got[i].ID() || !bytes.Equal(again[i].Encode(), got[i].Encode()) {
				t.Fatalf("round trip changed transaction %d", i)
			}
		}
	})
}

// FuzzHeaderRelayDecode feeds arbitrary bytes to the header-relay decoder,
// which reads what a corrupting relay link delivers in place of the
// genuine window: no panic, allocation bounded by the input length, and an
// accepted message re-encodes to bytes that decode to the same chain, head
// and headers.
func FuzzHeaderRelayDecode(f *testing.F) {
	h1 := &types.Header{ChainID: 2, Height: 6, Time: 30, StateRoot: hashing.Sum([]byte("root"))}
	h2 := &types.Header{ChainID: 2, Height: 7, Time: 35, ParentHash: h1.Hash(), GasUsed: 21_000}
	f.Add([]byte(nil))
	f.Add(encodeHeaderRelay(2, 7, nil))
	f.Add(encodeHeaderRelay(2, 7, []*types.Header{h1, h2}))
	f.Add([]byte{0x02, 0x07, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a count of 2^32 over no input
	f.Fuzz(func(t *testing.T, data []byte) {
		var chain hashing.ChainID
		var head uint64
		var headers []*types.Header
		var err error
		if n := allocated(func() { chain, head, headers, err = decodeHeaderRelay(data) }); n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		chain2, head2, headers2, err := decodeHeaderRelay(encodeHeaderRelay(chain, head, headers))
		if err != nil {
			t.Fatalf("re-decode of an accepted message failed: %v", err)
		}
		if chain2 != chain || head2 != head || len(headers2) != len(headers) {
			t.Fatalf("round trip changed the message: (%s, %d, %d headers) != (%s, %d, %d)",
				chain2, head2, len(headers2), chain, head, len(headers))
		}
		for i := range headers {
			if *headers2[i] != *headers[i] {
				t.Fatalf("round trip changed header %d: %+v != %+v", i, headers2[i], headers[i])
			}
		}
	})
}
