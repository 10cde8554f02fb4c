package tendermint

import (
	"errors"
	"fmt"

	"scmove/internal/codec"
	"scmove/internal/simnet"
)

// Wire codec for consensus messages: the byte encoding the TCP transport
// carries between validators. The discrete-event network passes message
// values by reference and never encodes; over sockets every proposal and
// vote crosses as one frame payload in this format.
//
// Decoding treats input as hostile in the codec package's style: the
// proposal payload's length claim is checked against the bytes that remain
// and against maxWirePayload before it is read, claimed indices are
// range-checked, and trailing bytes are an error. A proposal's payload is
// decoded in place: it aliases the frame it arrived in, which the TCP
// transport allocates afresh for every frame. Decoding is exact: every
// field must be minimally encoded, so a message decodes only from the
// bytes EncodePayload writes for it and no two encodings of one message
// are accepted.

const (
	wireProposal byte = 1
	wireVote     byte = 2

	// maxWirePayload bounds a proposal's embedded block payload; a 2000-tx
	// block encodes to ~1 MB, so 64 MiB matches the transport frame bound.
	maxWirePayload = 64 << 20
	// maxWireIndex bounds claimed validator indices and rounds: real
	// clusters have single-digit validators and rounds only grow past a
	// handful under sustained faults. A million leaves six orders of
	// headroom while keeping hostile values from turning into huge ints.
	maxWireIndex = 1 << 20
)

// errNonCanonical rejects a message one of whose varints is longer than
// its minimal encoding.
var errNonCanonical = errors.New("tendermint: decode message: non-canonical encoding")

// WireMessages returns the codec for tendermint's WAN message types.
func WireMessages() simnet.WireCodec { return wireMessages{} }

type wireMessages struct{}

// proposalSize and voteSize are the lengths of EncodePayload's output.
func proposalSize(m msgProposal) int {
	return codec.SizeUvarint(uint64(wireProposal)) + codec.SizeUvarint(m.Height) +
		codec.SizeUvarint(uint64(m.Round)) + codec.SizeBytes(len(m.Payload)) + codec.SizeUvarint(uint64(m.From))
}

func voteSize(m msgVote) int {
	return codec.SizeUvarint(uint64(wireVote)) + codec.SizeUvarint(uint64(m.Kind)) + codec.SizeUvarint(m.Height) +
		codec.SizeUvarint(uint64(m.Round)) + len(m.PayloadHash) + codec.SizeUvarint(uint64(m.From))
}

func (wireMessages) EncodePayload(payload any) ([]byte, error) {
	switch msg := payload.(type) {
	case *proposalRec:
		return encodeProposal(msg.msgProposal), nil
	case msgProposal:
		return encodeProposal(msg), nil
	case *voteRec:
		return encodeVote(msg.msgVote), nil
	case msgVote:
		return encodeVote(msg), nil
	default:
		return nil, fmt.Errorf("tendermint: unencodable payload type %T", payload)
	}
}

func encodeProposal(msg msgProposal) []byte {
	w := codec.NewWriter(proposalSize(msg))
	w.WriteUvarint(uint64(wireProposal))
	w.WriteUvarint(msg.Height)
	w.WriteUvarint(uint64(msg.Round))
	w.WriteBytes(msg.Payload)
	w.WriteUvarint(uint64(msg.From))
	return w.Bytes()
}

func encodeVote(msg msgVote) []byte {
	w := codec.NewWriter(voteSize(msg))
	w.WriteUvarint(uint64(wireVote))
	w.WriteUvarint(uint64(msg.Kind))
	w.WriteUvarint(msg.Height)
	w.WriteUvarint(uint64(msg.Round))
	w.WriteHash(msg.PayloadHash)
	w.WriteUvarint(uint64(msg.From))
	return w.Bytes()
}

func (wireMessages) DecodePayload(b []byte) (any, error) {
	r := codec.NewReader(b)
	kind := r.ReadUvarint()
	switch kind {
	case uint64(wireProposal):
		var msg msgProposal
		msg.Height = r.ReadUvarint()
		round := r.ReadUvarint()
		msg.Payload = r.ReadBytesView()
		if len(msg.Payload) > maxWirePayload {
			return nil, fmt.Errorf("tendermint: decode proposal: %w", codec.ErrOverflow)
		}
		from := r.ReadUvarint()
		if err := r.Finish(); err != nil {
			return nil, fmt.Errorf("tendermint: decode proposal: %w", err)
		}
		if round > maxWireIndex || from > maxWireIndex {
			return nil, errors.New("tendermint: decode proposal: index out of range")
		}
		msg.Round, msg.From = int(round), int(from)
		// Finish consumed every byte, and a varint longer than its minimal
		// form is the only way the fields can fill more than they need.
		if len(b) != proposalSize(msg) {
			return nil, errNonCanonical
		}
		return msg, nil
	case uint64(wireVote):
		var msg msgVote
		vk := r.ReadUvarint()
		msg.Height = r.ReadUvarint()
		round := r.ReadUvarint()
		msg.PayloadHash = r.ReadHash()
		from := r.ReadUvarint()
		if err := r.Finish(); err != nil {
			return nil, fmt.Errorf("tendermint: decode vote: %w", err)
		}
		if vk != uint64(votePrevote) && vk != uint64(votePrecommit) {
			return nil, errors.New("tendermint: decode vote: unknown vote kind")
		}
		if round > maxWireIndex || from > maxWireIndex {
			return nil, errors.New("tendermint: decode vote: index out of range")
		}
		msg.Kind, msg.Round, msg.From = voteKind(vk), int(round), int(from)
		if len(b) != voteSize(msg) {
			return nil, errNonCanonical
		}
		return msg, nil
	default:
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("tendermint: decode message: %w", err)
		}
		return nil, fmt.Errorf("tendermint: unknown wire message kind %d", kind)
	}
}
