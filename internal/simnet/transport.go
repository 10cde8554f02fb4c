// The transport seam: consensus nodes speak to their peers through the
// minimal Transport interface rather than the concrete *Network. The
// deterministic discrete-event Network is the default implementation —
// nothing about its behaviour changes — and the TCP transport (tcp.go)
// carries the same messages over real loopback sockets for wall-clock
// experiments. The seam is exactly the surface consensus uses: register a
// handler, send a payload to one peer or to several, administratively
// partition a node.
package simnet

// Transport delivers opaque payloads between registered nodes. Payloads
// cross a Transport by reference in the in-process implementations and as
// codec-encoded frames over sockets; senders must treat a payload as
// immutable once handed over, and a Releaser payload as theirs again only
// once the transport has released it.
type Transport interface {
	// Register adds a node and its delivery handler. Registering an
	// existing id replaces its handler (restart after a crash).
	Register(id NodeID, region Region, h Handler) error
	// Send delivers payload from one registered node to another,
	// asynchronously. Undeliverable messages (unknown peer, down node,
	// injected fault, broken socket) are dropped silently — consensus is
	// built to survive loss.
	Send(from, to NodeID, payload any)
	// Broadcast delivers one payload from a node to each of the given
	// peers, in order, with Send's semantics per peer. A byte-level
	// transport encodes the payload once for all of them.
	Broadcast(from NodeID, to []NodeID, payload any)
	// SetNodeDown administratively isolates a node (crash simulation):
	// while down it neither receives nor sends.
	SetNodeDown(id NodeID, down bool)
}

// The deterministic network is the default Transport.
var _ Transport = (*Network)(nil)

// WireCodec encodes consensus payloads for byte-level transports. The
// discrete-event Network passes payloads by reference and never needs
// one; the TCP transport refuses to send a payload its codec does not
// know. Implementations live next to the message definitions (the
// tendermint package encodes its proposal and vote types).
type WireCodec interface {
	// EncodePayload serializes a payload, or errors on unknown types.
	EncodePayload(payload any) ([]byte, error)
	// DecodePayload parses what EncodePayload produced. Inputs arrive
	// from the network and must be treated as hostile: allocation stays
	// bounded by input length and malformed bytes error out.
	DecodePayload(b []byte) (any, error)
}
