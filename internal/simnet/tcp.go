package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"scmove/internal/codec"
)

// TCP is a Transport carrying codec-encoded consensus messages over real
// loopback TCP sockets. Each registered node owns a listener on
// 127.0.0.1 (ephemeral port); a sender dials one connection per (from,
// to) pair on first use and keeps it, so per-link delivery stays FIFO
// like the in-process network. Frames are length-prefixed and bounded —
// the decoder treats every incoming byte as hostile.
//
// Unlike the discrete-event Network this transport is driven by the
// operating system: delivery order across links, latency, and
// interleaving are whatever the kernel produces. The deterministic path
// stays the default; TCP carries consensus for the live stack: the
// benchmark's rpc_* workloads and TestRealtimeTCPRPCMatchesDiscreteEvent.
type TCP struct {
	codec    WireCodec
	dispatch func(func())
	maxFrame int

	mu     sync.Mutex
	nodes  map[NodeID]*tcpNode
	down   map[NodeID]bool
	conns  map[tcpLink]*tcpConn
	closed bool

	// Drop accounting (atomic: send and reader goroutines race on them).
	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64 // undeliverable sends: down/unknown peer, encode or socket failure
	rejected  atomic.Uint64 // hostile or malformed inbound frames
}

type tcpLink struct{ from, to NodeID }

type tcpNode struct {
	handler Handler
	ln      net.Listener
	addr    string
}

// tcpConn serializes writers on one directed link. head, iov and bufs
// hold the frame being written (a local net.Buffers would escape to the
// heap through WriteTo), so a frame costs the link no allocation.
type tcpConn struct {
	mu   sync.Mutex
	c    net.Conn
	head [maxFrameHead]byte
	iov  [2][]byte
	bufs net.Buffers
}

// DefaultMaxFrame bounds one frame: a full consensus proposal carrying a
// 2000-tx block is ~1 MB, so 64 MiB is generous without letting a hostile
// length prefix allocate unbounded memory.
const DefaultMaxFrame = 64 << 20

// NewTCP returns a TCP transport. codec encodes/decodes payloads;
// dispatch, if non-nil, funnels every delivery callback (it must run the
// function it is given, typically on a driver goroutine that serializes
// consensus work — simclock.Realtime.Post). A nil dispatch runs handlers
// inline on the per-connection reader goroutine. maxFrame ≤ 0 selects
// DefaultMaxFrame.
func NewTCP(wc WireCodec, dispatch func(func()), maxFrame int) *TCP {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &TCP{
		codec:    wc,
		dispatch: dispatch,
		maxFrame: maxFrame,
		nodes:    make(map[NodeID]*tcpNode),
		down:     make(map[NodeID]bool),
		conns:    make(map[tcpLink]*tcpConn),
	}
}

// Register starts a loopback listener for the node and begins accepting
// peer connections. The region is ignored — real sockets have real
// latencies. Re-registering replaces the handler but keeps the listener.
func (t *TCP) Register(id NodeID, _ Region, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("simnet: tcp transport closed")
	}
	if n, ok := t.nodes[id]; ok {
		n.handler = h
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("simnet: tcp listen for node %d: %w", id, err)
	}
	node := &tcpNode{handler: h, ln: ln, addr: ln.Addr().String()}
	t.nodes[id] = node
	go t.acceptLoop(node)
	return nil
}

// Addr returns the node's listen address (tests dial it directly).
func (t *TCP) Addr(id NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[id]
	if !ok {
		return "", false
	}
	return n.addr, true
}

// SetNodeDown isolates or revives a node. Down nodes drop inbound frames
// at delivery and refuse to send; existing connections stay open (a
// partition, not a socket reset), matching the Network's semantics of an
// administrative crash.
func (t *TCP) SetNodeDown(id NodeID, down bool) {
	t.mu.Lock()
	t.down[id] = down
	t.mu.Unlock()
}

// Send writes payload as one frame on the (from, to) connection: it is
// Broadcast to a single peer.
func (t *TCP) Send(from, to NodeID, payload any) {
	t.Broadcast(from, []NodeID{to}, payload)
}

// Broadcast encodes payload once and writes it as one frame on each
// (from, peer) connection in turn, dialing a link on first use. A frame is
// its own header and the shared body, written together in one vectored
// write, so the body is never copied per peer. Failures of any kind drop
// that peer's copy — consensus tolerates loss — and are counted.
func (t *TCP) Broadcast(from NodeID, to []NodeID, payload any) {
	t.sent.Add(uint64(len(to)))
	var (
		body    []byte
		encoded bool
	)
	for i, id := range to {
		conn, addr, ok := t.link(from, id)
		if !ok {
			t.dropped.Add(1)
			continue
		}
		if !encoded {
			var err error
			if body, err = t.codec.EncodePayload(payload); err != nil {
				t.dropped.Add(uint64(len(to) - i))
				return
			}
			encoded = true
		}
		if frameBodyLen(from, id, len(body)) > t.maxFrame || !conn.write(addr, from, id, body) {
			t.dropped.Add(1)
		}
	}
}

// link returns the connection record of (from, to), creating it on first
// use, and the peer's address; false means the message must be dropped (a
// closed transport, a down end, an unknown peer).
func (t *TCP) link(from, to NodeID) (*tcpConn, string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.down[from] || t.down[to] {
		return nil, "", false
	}
	dst, ok := t.nodes[to]
	if !ok {
		return nil, "", false
	}
	link := tcpLink{from, to}
	conn := t.conns[link]
	if conn == nil {
		conn = &tcpConn{}
		t.conns[link] = conn
	}
	return conn, dst.addr, true
}

// write sends the frame of payload from one node to another, dialing addr
// if the link has no socket yet. One writer at a time per link: the
// connection mutex both serializes frames (FIFO per link, like the
// in-process network) and makes the lazy dial race-free. A failed write
// closes the socket; the link's next frame dials again.
func (c *tcpConn) write(addr string, from, to NodeID, payload []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.c == nil {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return false
		}
		c.c = nc
	}
	// WriteTo consumes bufs and clears each buffer it writes, so the
	// payload is not held past this frame.
	c.bufs = append(c.iov[:0], appendFrameHead(c.head[:0], from, to, len(payload)), payload)
	if _, err := c.bufs.WriteTo(c.c); err != nil {
		clear(c.iov[:])
		c.c.Close()
		c.c = nil
		return false
	}
	return true
}

// Stats returns cumulative (sent, delivered, dropped, rejected) counts.
func (t *TCP) Stats() (sent, delivered, dropped, rejected uint64) {
	return t.sent.Load(), t.delivered.Load(), t.dropped.Load(), t.rejected.Load()
}

// Close shuts every listener and connection down. In-flight reader
// goroutines drain on their own as their sockets error out.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var errs []error
	for id, n := range t.nodes {
		if err := n.ln.Close(); err != nil {
			errs = append(errs, fmt.Errorf("simnet: close listener %d: %w", id, err))
		}
	}
	for link, conn := range t.conns {
		conn.mu.Lock()
		if conn.c != nil {
			if err := conn.c.Close(); err != nil {
				errs = append(errs, fmt.Errorf("simnet: close link %d->%d: %w", link.from, link.to, err))
			}
			conn.c = nil
		}
		conn.mu.Unlock()
	}
	return errors.Join(errs...)
}

func (t *TCP) acceptLoop(node *tcpNode) {
	for {
		c, err := node.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.readLoop(node, c)
	}
}

// readLoop decodes frames off one inbound connection until it errors.
// Any malformed frame kills the connection: a peer that cannot frame
// correctly is hostile or broken, and resynchronizing inside a corrupted
// byte stream is not possible anyway.
func (t *TCP) readLoop(node *tcpNode, c net.Conn) {
	defer c.Close()
	var hdr [frameHeaderSize]byte // every frame's length prefix, one array per connection
	for {
		// Every frame lands in a buffer of its own: a decoded proposal's
		// payload aliases it and is held by the validator long after the
		// next frame is read.
		body, err := readFrame(c, &hdr, t.maxFrame)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.rejected.Add(1)
			}
			return
		}
		from, to, payloadBytes, err := DecodeFrame(body, t.maxFrame)
		if err != nil {
			t.rejected.Add(1)
			return
		}
		payload, err := t.codec.DecodePayload(payloadBytes)
		if err != nil {
			t.rejected.Add(1)
			return
		}
		t.deliver(node, from, to, payload)
	}
}

func (t *TCP) deliver(node *tcpNode, from, to NodeID, payload any) {
	t.mu.Lock()
	dst, ok := t.nodes[to]
	if !ok || dst != node || t.down[to] {
		// Misrouted (frame addressed to a node this listener does not
		// serve) or administratively down.
		t.mu.Unlock()
		t.rejected.Add(1)
		return
	}
	h := dst.handler
	t.mu.Unlock()
	t.delivered.Add(1)
	if t.dispatch != nil {
		t.dispatch(func() { h(from, payload) })
		return
	}
	h(from, payload)
}

// Frame format: a 4-byte big-endian length prefix over a codec body of
//
//	uvarint from | uvarint to | length-prefixed payload bytes
//
// The prefix is checked against maxFrame before any allocation, and the
// body decoder checks the payload's length claim against the bytes that
// remain before it looks at them, so a hostile length claim can never cost
// more memory than the attacker actually transmitted. appendFrameHead
// writes everything in front of the payload; EncodeFrame and Broadcast
// both frame through it.
const frameHeaderSize = 4

// maxFrameHead bounds what appendFrameHead writes: the length prefix and
// three uvarints.
const maxFrameHead = frameHeaderSize + 3*binary.MaxVarintLen64

// ErrFrameTooLarge reports a length prefix exceeding the frame bound.
var ErrFrameTooLarge = errors.New("simnet: frame exceeds size bound")

// frameBodyLen is the length prefix of a frame with a payloadLen-byte
// payload: the route and the length-prefixed payload.
func frameBodyLen(from, to NodeID, payloadLen int) int {
	return codec.SizeUvarint(uint64(from)) + codec.SizeUvarint(uint64(to)) + codec.SizeBytes(payloadLen)
}

// appendFrameHead appends the bytes of a frame that precede its
// payloadLen-byte payload.
func appendFrameHead(dst []byte, from, to NodeID, payloadLen int) []byte {
	w := codec.AppendTo(binary.BigEndian.AppendUint32(dst, uint32(frameBodyLen(from, to, payloadLen))))
	w.WriteUvarint(uint64(from))
	w.WriteUvarint(uint64(to))
	w.WriteUvarint(uint64(payloadLen))
	return w.Bytes()
}

// EncodeFrame builds one wire frame.
func EncodeFrame(from, to NodeID, payload []byte) []byte {
	frame := appendFrameHead(make([]byte, 0, frameHeaderSize+frameBodyLen(from, to, len(payload))), from, to, len(payload))
	return append(frame, payload...)
}

// readFrame reads one length-prefixed frame body off r, refusing length
// claims above maxFrame before allocating anything. A clean EOF at a
// frame boundary returns io.EOF; a disconnect mid-prefix or mid-body
// returns io.ErrUnexpectedEOF. The prefix is read into hdr, so a reader of
// many frames allocates their bodies only.
func readFrame(r io.Reader, hdr *[frameHeaderSize]byte, maxFrame int) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(maxFrame) {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	return body, nil
}

// DecodeFrame parses a frame body into its route and payload bytes. The
// payload aliases body — nothing is copied — so body must not be reused
// while the payload, or anything decoded in place from it, is held. A
// payload longer than maxFrame (≥ 0) fails with codec.ErrOverflow.
func DecodeFrame(body []byte, maxFrame int) (from, to NodeID, payload []byte, err error) {
	r := codec.NewReader(body)
	from = NodeID(r.ReadUvarint())
	to = NodeID(r.ReadUvarint())
	payload = r.ReadBytesView()
	if maxFrame >= 0 && len(payload) > maxFrame {
		return 0, 0, nil, fmt.Errorf("simnet: decode frame: %w", codec.ErrOverflow)
	}
	if err := r.Finish(); err != nil {
		return 0, 0, nil, fmt.Errorf("simnet: decode frame: %w", err)
	}
	return from, to, payload, nil
}
