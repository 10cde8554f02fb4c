package tendermint

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"

	"scmove/internal/codec"
	"scmove/internal/hashing"
	"scmove/internal/simnet"
)

func TestWireProposalRoundTrip(t *testing.T) {
	c := WireMessages()
	in := msgProposal{Height: 42, Round: 3, Payload: []byte("block bytes"), From: 5}
	enc, err := c.EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(msgProposal)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if got.Height != in.Height || got.Round != in.Round || got.From != in.From ||
		!bytes.Equal(got.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
	}
}

func TestWireVoteRoundTrip(t *testing.T) {
	c := WireMessages()
	for _, kind := range []voteKind{votePrevote, votePrecommit} {
		in := msgVote{Kind: kind, Height: 7, Round: 1, PayloadHash: hashing.Sum([]byte("p")), From: 2}
		enc, err := c.EncodePayload(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.DecodePayload(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.(msgVote); got != in {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
		}
	}
}

// TestWireBytesPinned: a proposal and a precommit encode to the bytes the
// transport's TestBroadcastWireBytesUnchanged frames (simnet), so the two
// pins together hold everything a validator puts on the wire.
func TestWireBytesPinned(t *testing.T) {
	block := []byte("a block: 0123456789abcdef")
	for _, tc := range []struct {
		msg  any
		want string
	}{
		{msgProposal{Height: 7, Round: 1, Payload: block, From: 2},
			"010701196120626c6f636b3a203031323334353637383961626364656602"},
		{msgVote{Kind: votePrecommit, Height: 7, Round: 1, PayloadHash: hashing.Sum(block), From: 2},
			"0202070186b5dc8df61b3272334fb048a08d2ca8eb26233ec779b6c3695be707f414d16502"},
	} {
		enc, err := WireMessages().EncodePayload(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(enc); got != tc.want || len(enc) != cap(enc) {
			t.Errorf("%T encodes to %s (cap %d), want %s", tc.msg, got, cap(enc), tc.want)
		}
	}
}

// TestWireRejectsHostileInput: truncated, oversized, out-of-range,
// trailing and non-minimally encoded input errors; a length claim beyond
// the input fails before anything proportional to it is allocated.
func TestWireRejectsHostileInput(t *testing.T) {
	c := WireMessages()
	cases := [][]byte{
		nil,
		{0x09},             // unknown kind
		{0x01},             // proposal with nothing else
		{0x02, 0x07},       // vote with bad kind and nothing else
		{0x01, 0x01, 0x01}, // proposal missing payload
		append([]byte{0x01, 0x01, 0x01}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), // absurd payload length
		{0x81, 0x02, 0x01, 0x01, 0x00, 0x00}, // kind 257, whose low byte is a proposal's
		{0x01, 0x81, 0x00, 0x01, 0x00, 0x00}, // height 1 as a two-byte varint
	}
	for i, b := range cases {
		if _, err := c.DecodePayload(b); err == nil {
			t.Errorf("case %d decoded cleanly", i)
		}
	}
	// Out-of-range indices are rejected even when framing is intact.
	enc, err := c.EncodePayload(msgProposal{Height: 1, Round: maxWireIndex + 1, Payload: nil, From: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodePayload(enc); err == nil {
		t.Error("oversized round decoded cleanly")
	}
	// Trailing garbage is an error.
	good, _ := c.EncodePayload(msgVote{Kind: votePrevote, Height: 1, Round: 0, From: 0})
	if _, err := c.DecodePayload(append(good, 0xEE)); err == nil {
		t.Error("trailing bytes decoded cleanly")
	}
	// A 32 MiB claim, under maxWirePayload, in a 9-byte input.
	claim := []byte{0x01, 0x01, 0x01, 0x80, 0x80, 0x80, 0x10, 0x00, 0x00}
	if got := allocatedBytes(100, func() { c.DecodePayload(claim) }); got > 1024 {
		t.Errorf("rejecting a 32 MiB claim allocates %d bytes", got)
	}
	// Unencodable payload types error instead of panicking.
	if _, err := c.EncodePayload("not a consensus message"); err == nil {
		t.Error("foreign payload encoded cleanly")
	}
}

// allocatedBytes is the heap bytes one call of f allocates, averaged over
// runs.
func allocatedBytes(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestProposalFrameDecodesInPlace: a proposal frame off the wire decodes
// without a payload-sized allocation — the block the validator keeps is the
// frame body's own bytes.
func TestProposalFrameDecodesInPlace(t *testing.T) {
	c := WireMessages()
	block := bytes.Repeat([]byte{0x5A}, 64<<10)
	enc, err := c.EncodePayload(msgProposal{Height: 9, Round: 0, Payload: block, From: 3})
	if err != nil {
		t.Fatal(err)
	}
	body := simnet.EncodeFrame(1, 2, enc)[4:]
	var msg msgProposal
	decode := func() {
		_, _, payload, err := simnet.DecodeFrame(body, simnet.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.DecodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		msg = out.(msgProposal)
	}
	if got := allocatedBytes(100, decode); got > 1024 {
		t.Fatalf("decoding a 64 KiB proposal frame allocates %d bytes", got)
	}
	if !bytes.Equal(msg.Payload, block) || &msg.Payload[0] != &body[len(body)-1-len(block)] {
		t.Fatal("the decoded block is not the frame body's own bytes")
	}
}

// FuzzWireDecode drives hostile bytes through DecodePayload: it never
// panics, every message it accepts re-encodes to exactly its input (no two
// encodings of one message are accepted), and an accepted proposal's block
// is the input's own bytes (wired into `make fuzzsmoke`).
func FuzzWireDecode(f *testing.F) {
	c := WireMessages()
	for _, m := range []any{
		msgProposal{Height: 7, Round: 1, Payload: []byte("a block"), From: 2},
		msgProposal{Height: 1},
		msgVote{Kind: votePrevote, Height: 7, Round: 1, PayloadHash: hashing.Sum([]byte("a block")), From: 2},
		msgVote{Kind: votePrecommit, Height: 1 << 40, Round: maxWireIndex, From: maxWireIndex},
	} {
		enc, err := c.EncodePayload(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{0x01, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add([]byte{0x81, 0x02, 0x01, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := c.DecodePayload(data)
		if err != nil {
			return
		}
		again, err := c.EncodePayload(out)
		if err != nil {
			t.Fatalf("accepted %T does not encode: %v", out, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x re-encodes to %x", data, again)
		}
		if p, ok := out.(msgProposal); ok && len(p.Payload) > 0 &&
			&p.Payload[0] != &data[len(data)-codec.SizeUvarint(uint64(p.From))-len(p.Payload)] {
			t.Fatal("an accepted proposal's block is a copy of the input")
		}
	})
}
