package simnet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scmove/internal/codec"
)

// stringCodec is a trivial WireCodec for transport tests: payloads are
// strings, encoded length-prefixed.
type stringCodec struct{}

func (stringCodec) EncodePayload(payload any) ([]byte, error) {
	s, ok := payload.(string)
	if !ok {
		return nil, fmt.Errorf("stringCodec: %T", payload)
	}
	w := codec.NewWriter(len(s) + 8)
	w.WriteString(s)
	return w.Bytes(), nil
}

func (stringCodec) DecodePayload(b []byte) (any, error) {
	r := codec.NewReader(b)
	s := r.ReadString()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("consensus message bytes")
	frame := EncodeFrame(7, 9, payload)
	body, err := readFrame(bytes.NewReader(frame), new([frameHeaderSize]byte), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	from, to, got, err := DecodeFrame(body, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if from != 7 || to != 9 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: from=%d to=%d payload=%q", from, to, got)
	}
}

// An oversized length prefix must be refused before any allocation: a
// hostile peer claiming a 4 GiB frame costs four header bytes, not four
// gigabytes.
func TestFrameOversizedLengthPrefix(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xFFFFFFFF)
	if _, err := readFrame(bytes.NewReader(hdr[:]), new([frameHeaderSize]byte), DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// One byte above the bound is refused; exactly at the bound is not.
	binary.BigEndian.PutUint32(hdr[:], 17)
	if _, err := readFrame(bytes.NewReader(hdr[:]), new([frameHeaderSize]byte), 16); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge at bound+1", err)
	}
	body := append([]byte{0, 0, 0, 4}, []byte("abcd")...)
	if _, err := readFrame(bytes.NewReader(body), new([frameHeaderSize]byte), 4); err != nil {
		t.Fatalf("frame at exactly maxFrame refused: %v", err)
	}
}

// A frame whose body is shorter than its prefix claims (stream truncated
// by a disconnect) surfaces io.ErrUnexpectedEOF, not a hang or a panic.
func TestFrameTruncatedBody(t *testing.T) {
	frame := EncodeFrame(1, 2, []byte("full payload"))
	for cut := 1; cut < len(frame); cut++ {
		_, err := readFrame(bytes.NewReader(frame[:cut]), new([frameHeaderSize]byte), DefaultMaxFrame)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	// Zero bytes is a clean EOF — the peer closed between frames.
	if _, err := readFrame(bytes.NewReader(nil), new([frameHeaderSize]byte), DefaultMaxFrame); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// Mid-frame disconnect on a real connection: the writer sends a partial
// frame and closes; the reader must error out rather than wait forever.
func TestFrameMidFrameDisconnect(t *testing.T) {
	client, server := net.Pipe()
	frame := EncodeFrame(3, 4, bytes.Repeat([]byte{0xAB}, 256))
	go func() {
		client.Write(frame[:len(frame)/2])
		client.Close()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := readFrame(server, new([frameHeaderSize]byte), DefaultMaxFrame)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader hung on mid-frame disconnect")
	}
}

// DecodeFrame bounds its payload: a body whose inner length claim exceeds
// the remaining bytes (or the bound) errors.
func TestDecodeFrameHostileBody(t *testing.T) {
	cases := [][]byte{
		nil,                   // empty body
		{0x01},                // from only
		{0x01, 0x02},          // missing payload length
		{0x01, 0x02, 0xFF},    // truncated uvarint
		{0x01, 0x02, 0x10, 0}, // payload length 16, one byte present
		append([]byte{0x01, 0x02}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), // absurd length claim
	}
	for i, body := range cases {
		if _, _, _, err := DecodeFrame(body, DefaultMaxFrame); err == nil {
			t.Errorf("case %d: hostile body decoded cleanly", i)
		}
	}
	// Trailing garbage after a valid payload is an error too.
	frame := EncodeFrame(1, 2, []byte("x"))
	body := append(frame[frameHeaderSize:], 0xEE)
	if _, _, _, err := DecodeFrame(body, DefaultMaxFrame); err == nil {
		t.Error("trailing bytes decoded cleanly")
	}
}

// TestDecodeFrameInPlace: decoding a frame body copies nothing — the
// payload aliases the body — and allocates nothing at all.
func TestDecodeFrameInPlace(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 64<<10)
	body := EncodeFrame(7, 9, payload)[frameHeaderSize:]
	var got []byte
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if _, _, got, err = DecodeFrame(body, DefaultMaxFrame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeFrame allocates %.1f times per frame", allocs)
	}
	if !bytes.Equal(got, payload) || &got[0] != &body[len(body)-len(payload)] {
		t.Fatal("the decoded payload is not the frame body's own bytes")
	}
	// The bound still holds on a payload the body has room for.
	if _, _, _, err := DecodeFrame(body, len(payload)-1); !errors.Is(err, codec.ErrOverflow) {
		t.Fatalf("payload over the bound: err = %v, want codec.ErrOverflow", err)
	}
}

// TestReadFramesAllocateOnlyBodies: a connection's reader reads every
// frame's length prefix into the one array it keeps for the connection, so
// reading N frames allocates the N bodies and nothing else.
func TestReadFramesAllocateOnlyBodies(t *testing.T) {
	const frames = 16
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = append(stream, EncodeFrame(NodeID(i), 9, bytes.Repeat([]byte{byte(i)}, 100+i))...)
	}
	r := bytes.NewReader(stream)
	var hdr [frameHeaderSize]byte
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		for i := 0; i < frames; i++ {
			body, err := readFrame(r, &hdr, DefaultMaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			if from, _, payload, err := DecodeFrame(body, DefaultMaxFrame); err != nil || from != NodeID(i) || len(payload) != 100+i {
				t.Fatalf("frame %d: from %d, %d payload bytes, err %v", i, from, len(payload), err)
			}
		}
	})
	if allocs != frames {
		t.Fatalf("reading %d frames allocates %.1f objects, want one body each", frames, allocs)
	}
}

// rawCodec carries byte payloads as they are.
type rawCodec struct{}

func (rawCodec) EncodePayload(p any) ([]byte, error) { return p.([]byte), nil }
func (rawCodec) DecodePayload(b []byte) (any, error) { return b, nil }

// TestBroadcastWireBytesUnchanged: a Broadcast writes to every peer exactly
// the bytes EncodeFrame wrote per Send before broadcasts existed, frame
// after frame in order. The payloads are the tendermint wire encodings of a
// proposal (height 7, round 1, a 25-byte block, from validator 2) and of
// its precommit; one peer id takes a two-byte varint.
func TestBroadcastWireBytesUnchanged(t *testing.T) {
	const (
		proposal = "010701196120626c6f636b3a203031323334353637383961626364656602"
		vote     = "0202070186b5dc8df61b3272334fb048a08d2ca8eb26233ec779b6c3695be707f414d16502"
	)
	want := map[NodeID]string{
		2: "0000002101021e010701196120626c6f636b3a203031323334353637383961626364656602" +
			"000000280102250202070186b5dc8df61b3272334fb048a08d2ca8eb26233ec779b6c3695be707f414d16502",
		3: "0000002101031e010701196120626c6f636b3a203031323334353637383961626364656602" +
			"000000280103250202070186b5dc8df61b3272334fb048a08d2ca8eb26233ec779b6c3695be707f414d16502",
		300: "0000002201ac021e010701196120626c6f636b3a203031323334353637383961626364656602" +
			"0000002901ac02250202070186b5dc8df61b3272334fb048a08d2ca8eb26233ec779b6c3695be707f414d16502",
	}
	peers := []NodeID{2, 3, 300}
	tr := NewTCP(rawCodec{}, nil, 0)
	defer tr.Close()
	got := make(map[NodeID]chan string, len(peers))
	for _, id := range append([]NodeID{1}, peers...) {
		if err := tr.Register(id, 0, func(NodeID, any) {}); err != nil {
			t.Fatal(err)
		}
	}
	// Each peer's address leads to a plain listener that reads raw bytes.
	for _, id := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		tr.mu.Lock()
		tr.nodes[id].addr = ln.Addr().String()
		tr.mu.Unlock()
		ch := make(chan string, 1)
		got[id] = ch
		n := len(want[id]) / 2
		go func() {
			c, err := ln.Accept()
			if err != nil {
				ch <- err.Error()
				return
			}
			defer c.Close()
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			buf := make([]byte, n)
			if _, err := io.ReadFull(c, buf); err != nil {
				ch <- err.Error()
				return
			}
			ch <- hex.EncodeToString(buf)
		}()
	}
	for _, p := range []string{proposal, vote} {
		b, err := hex.DecodeString(p)
		if err != nil {
			t.Fatal(err)
		}
		tr.Broadcast(1, peers, b)
	}
	for _, id := range peers {
		select {
		case s := <-got[id]:
			if s != want[id] {
				t.Errorf("peer %d read\n%s\nwant\n%s", id, s, want[id])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("peer %d was never dialed", id)
		}
	}
	if sent, _, dropped, _ := tr.Stats(); sent != 6 || dropped != 0 {
		t.Fatalf("sent %d, dropped %d; want 6 and 0", sent, dropped)
	}
}

// countingCodec is stringCodec counting its encodings.
type countingCodec struct {
	stringCodec
	encodes atomic.Int64
}

func (c *countingCodec) EncodePayload(payload any) ([]byte, error) {
	c.encodes.Add(1)
	return c.stringCodec.EncodePayload(payload)
}

// TestBroadcastEncodesOnce: a Broadcast to three peers encodes its payload
// once, and so does a Send; every copy is delivered.
func TestBroadcastEncodesOnce(t *testing.T) {
	wc := &countingCodec{}
	tr := NewTCP(wc, nil, 0)
	defer tr.Close()
	delivered := make(chan string, 8)
	for id := NodeID(1); id <= 4; id++ {
		if err := tr.Register(id, 0, func(_ NodeID, payload any) { delivered <- payload.(string) }); err != nil {
			t.Fatal(err)
		}
	}
	await := func(n int, want string) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case s := <-delivered:
				if s != want {
					t.Fatalf("delivered %q, want %q", s, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d copies of %q delivered", i, n, want)
			}
		}
	}
	tr.Broadcast(1, []NodeID{2, 3, 4}, "proposal")
	await(3, "proposal")
	if n := wc.encodes.Load(); n != 1 {
		t.Fatalf("a Broadcast to 3 peers encoded %d times, want 1", n)
	}
	tr.Send(1, 2, "vote")
	await(1, "vote")
	if n := wc.encodes.Load(); n != 2 {
		t.Fatalf("a Send encoded %d times, want 1", n-1)
	}
}

// releasing is a Releaser carrying a string; it notes how many times its
// codec had encoded it when it was released.
type releasing struct {
	s        string
	codec    *countingCodec
	released []int64 // encodes at each release
}

func (r *releasing) Release() { r.released = append(r.released, r.codec.encodes.Load()) }

// releasingCodec encodes a *releasing as its string.
type releasingCodec struct{ countingCodec }

func (c *releasingCodec) EncodePayload(payload any) ([]byte, error) {
	return c.countingCodec.EncodePayload(payload.(*releasing).s)
}

// TestBroadcastReleasesAfterEncoding: a Releaser handed to TCP comes back
// once, when Broadcast or Send returns: after its one encoding, or without
// one when no peer could take it (a down node, an unknown peer).
func TestBroadcastReleasesAfterEncoding(t *testing.T) {
	wc := &releasingCodec{}
	tr := NewTCP(wc, nil, 0)
	defer tr.Close()
	delivered := make(chan string, 8)
	for id := NodeID(1); id <= 4; id++ {
		if err := tr.Register(id, 0, func(_ NodeID, payload any) { delivered <- payload.(string) }); err != nil {
			t.Fatal(err)
		}
	}
	check := func(r *releasing, encodes int64) {
		t.Helper()
		if len(r.released) != 1 || r.released[0] != encodes {
			t.Fatalf("%q: released with the codec's encode count at %v, want once at %d", r.s, r.released, encodes)
		}
	}
	proposal := &releasing{s: "proposal", codec: &wc.countingCodec}
	tr.Broadcast(1, []NodeID{2, 3, 4}, proposal)
	check(proposal, 1)
	for i := 0; i < 3; i++ {
		select {
		case s := <-delivered:
			if s != "proposal" {
				t.Fatalf("delivered %q", s)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 3 copies delivered", i)
		}
	}
	tr.SetNodeDown(2, true)
	vote := &releasing{s: "vote", codec: &wc.countingCodec}
	tr.Send(1, 2, vote)
	check(vote, 1) // dropped: never encoded
	lost := &releasing{s: "lost", codec: &wc.countingCodec}
	tr.Broadcast(1, []NodeID{2, 99}, lost)
	check(lost, 1)
	if _, _, dropped, _ := tr.Stats(); dropped != 3 {
		t.Fatalf("dropped %d copies, want 3", dropped)
	}
}

// TestBroadcastConcurrentSenders: goroutines broadcasting at once over the
// same links share each link's frame buffers under its mutex; every peer
// gets every message whole, each sender's in the order it sent them.
func TestBroadcastConcurrentSenders(t *testing.T) {
	const senders, msgs = 4, 50
	tr := NewTCP(stringCodec{}, nil, 0)
	defer tr.Close()
	var mu sync.Mutex
	got := make(map[NodeID][]string)
	delivered := make(chan struct{}, 3*senders*msgs)
	for id := NodeID(1); id <= 4; id++ {
		if err := tr.Register(id, 0, func(_ NodeID, payload any) {
			mu.Lock()
			got[id] = append(got[id], payload.(string))
			mu.Unlock()
			delivered <- struct{}{}
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				tr.Broadcast(1, []NodeID{2, 3, 4}, fmt.Sprintf("%d-%03d", g, i))
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 3*senders*msgs; i++ {
		select {
		case <-delivered:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d deliveries", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for id := NodeID(2); id <= 4; id++ {
		next := make([]int, senders)
		for _, s := range got[id] {
			var g, i int
			if _, err := fmt.Sscanf(s, "%d-%d", &g, &i); err != nil || g < 0 || g >= senders {
				t.Fatalf("peer %d got %q", id, s)
			}
			if i != next[g] {
				t.Fatalf("peer %d got %q out of order (want %d-%03d)", id, s, g, next[g])
			}
			next[g]++
		}
		if len(got[id]) != senders*msgs {
			t.Fatalf("peer %d got %d messages, want %d", id, len(got[id]), senders*msgs)
		}
	}
}

// End-to-end delivery over real sockets: payloads arrive decoded, in
// per-link FIFO order, and a down node receives nothing.
func TestTCPTransportDelivery(t *testing.T) {
	tr := NewTCP(stringCodec{}, nil, 0)
	defer tr.Close()

	const n = 50
	var mu sync.Mutex
	got := make(map[NodeID][]string)
	deliveredCh := make(chan struct{}, 2*n)
	handler := func(self NodeID) Handler {
		return func(from NodeID, payload any) {
			mu.Lock()
			got[self] = append(got[self], payload.(string))
			mu.Unlock()
			deliveredCh <- struct{}{}
		}
	}
	for id := NodeID(1); id <= 3; id++ {
		if err := tr.Register(id, 0, handler(id)); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < n; i++ {
		tr.Send(1, 2, fmt.Sprintf("a%03d", i))
		tr.Send(3, 2, fmt.Sprintf("b%03d", i))
	}
	for i := 0; i < 2*n; i++ {
		select {
		case <-deliveredCh:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d deliveries", i)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	var as, bs []string
	for _, s := range got[2] {
		if s[0] == 'a' {
			as = append(as, s)
		} else {
			bs = append(bs, s)
		}
	}
	if len(as) != n || len(bs) != n {
		t.Fatalf("node 2 got %d+%d messages, want %d+%d", len(as), len(bs), n, n)
	}
	for i := 0; i < n; i++ {
		if as[i] != fmt.Sprintf("a%03d", i) || bs[i] != fmt.Sprintf("b%03d", i) {
			t.Fatalf("per-link FIFO violated at %d: %s %s", i, as[i], bs[i])
		}
	}
}

func TestTCPTransportDownNode(t *testing.T) {
	tr := NewTCP(stringCodec{}, nil, 0)
	defer tr.Close()
	delivered := make(chan string, 8)
	for id := NodeID(1); id <= 2; id++ {
		if err := tr.Register(id, 0, func(from NodeID, payload any) {
			delivered <- payload.(string)
		}); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetNodeDown(2, true)
	tr.Send(1, 2, "while down")
	tr.SetNodeDown(2, false)
	tr.Send(1, 2, "after revive")
	select {
	case s := <-delivered:
		if s != "after revive" {
			t.Fatalf("delivered %q, want only the post-revive message", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-revive message not delivered")
	}
	select {
	case s := <-delivered:
		t.Fatalf("unexpected extra delivery %q", s)
	case <-time.After(50 * time.Millisecond):
	}
	_, _, dropped, _ := tr.Stats()
	if dropped == 0 {
		t.Error("down-node send not counted as dropped")
	}
}

// A hostile peer writing junk at a node's listener is rejected without
// crashing the transport, and well-formed traffic keeps flowing after.
func TestTCPTransportHostilePeer(t *testing.T) {
	tr := NewTCP(stringCodec{}, nil, 0)
	defer tr.Close()
	delivered := make(chan string, 8)
	for id := NodeID(1); id <= 2; id++ {
		if err := tr.Register(id, 0, func(from NodeID, payload any) {
			delivered <- payload.(string)
		}); err != nil {
			t.Fatal(err)
		}
	}
	addr, _ := tr.Addr(2)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Oversized claim followed by garbage.
	junk := make([]byte, 64)
	binary.BigEndian.PutUint32(junk, 0xFFFFFFF0)
	c.Write(junk)
	c.Close()

	tr.Send(1, 2, "still alive")
	select {
	case s := <-delivered:
		if s != "still alive" {
			t.Fatalf("delivered %q", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("transport wedged after hostile peer")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, _, rejected := tr.Stats(); rejected > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hostile frame not counted as rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzFrameDecode drives hostile bytes through the frame reader and body
// decoder: no panic, no unbounded allocation, and every accepted frame
// re-encodes to an equivalent decode (wired into `make fuzzsmoke`).
func FuzzFrameDecode(f *testing.F) {
	f.Add(EncodeFrame(1, 2, []byte("hello")))
	f.Add(EncodeFrame(0, 0, nil))
	f.Add([]byte{0, 0, 0, 4, 1, 2, 1, 0xAA})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 2, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 16
		body, err := readFrame(bytes.NewReader(data), new([frameHeaderSize]byte), maxFrame)
		if err != nil {
			return
		}
		from, to, payload, err := DecodeFrame(body, maxFrame)
		if err != nil {
			return
		}
		// Accepted frames survive a round trip.
		again := EncodeFrame(from, to, payload)
		body2, err := readFrame(bytes.NewReader(again), new([frameHeaderSize]byte), maxFrame)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		f2, t2, p2, err := DecodeFrame(body2, maxFrame)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if f2 != from || t2 != to || !bytes.Equal(p2, payload) {
			t.Fatalf("round trip mismatch: (%d,%d,%x) vs (%d,%d,%x)", from, to, payload, f2, t2, p2)
		}
	})
}
