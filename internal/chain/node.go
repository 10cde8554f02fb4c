package chain

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"scmove/internal/codec"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/pow"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
	"scmove/internal/tendermint"
	"scmove/internal/types"
)

// ProposerAddress derives a deterministic address for a chain's validator
// or miner by index (simulation identities; fee recipients).
func ProposerAddress(chain hashing.ChainID, index int) hashing.Address {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(chain))
	binary.BigEndian.PutUint64(buf[8:], uint64(index))
	return hashing.AddressFromHash(hashing.SumTagged(0xbb, buf[:]))
}

// BFTNode runs a chain under Tendermint consensus: the validator cluster
// agrees on each transaction batch over the simulated WAN, and the chain
// executes the decided batch once per height.
type BFTNode struct {
	Chain   *Chain
	Cluster *tendermint.Cluster
	sched   *simclock.Scheduler
	app     *bftApp
}

// bftApp adapts Chain to the tendermint.App interface.
type bftApp struct {
	chain    *Chain
	sched    *simclock.Scheduler
	counters *metrics.Counters
	// proposed is the payload Propose returned last and proposedTxs the
	// transactions it encodes: a decided payload with exactly these bytes is
	// applied from them instead of being decoded again.
	proposed    []byte
	proposedTxs []*types.Transaction
}

func (a *bftApp) Propose(height uint64) []byte {
	a.proposedTxs = a.chain.ProposeBatch()
	a.proposed = EncodeTxList(a.proposedTxs)
	return a.proposed
}

// Commit applies the decided payload. When it is byte for byte the one this
// node proposed, its transactions are the proposal's own: DecodeTxList of
// those bytes yields them field for field, ids included, since nothing
// edits a transaction once it is signed. Under go test that branch
// re-encodes them and panics if an edit slipped in between Propose and
// Commit. Any other payload — another validator's, a tampered copy, an
// equivocating twin — is decoded.
func (a *bftApp) Commit(height uint64, payload []byte) {
	proposer := ProposerAddress(a.chain.ChainID(), int(height)%10)
	var (
		txs []*types.Transaction
		err error
	)
	if a.proposed != nil && bytes.Equal(payload, a.proposed) {
		txs = a.proposedTxs
		if testing.Testing() && !bytes.Equal(EncodeTxList(txs), payload) {
			panic("chain: a proposed transaction was edited between Propose and Commit")
		}
	} else {
		txs, err = DecodeTxList(payload)
	}
	a.proposed, a.proposedTxs = nil, nil
	if err != nil {
		// An undecodable payload reached quorum: a Byzantine proposer (or a
		// coordinated corruption) got junk decided. Safety holds — every
		// validator decided the same bytes, and every replica's DecodeTxList
		// fails identically — so commit an empty block, record the event,
		// and keep producing blocks rather than stalling or panicking. The
		// selected-but-uncommitted transactions stay in the pool for the
		// next height.
		if a.counters != nil {
			a.counters.Inc("byzantine.badpayload.committed")
		}
		txs = nil
	}
	a.chain.ApplyBlock(txs, a.sched.NowUnix(), proposer)
}

// NewBFTNode creates a chain with a validator cluster of len(ids) members
// placed in the given regions, proposing a block every BlockInterval of the
// chain's configuration. The transport seam decides what carries
// consensus traffic: the deterministic discrete-event network by default,
// or real TCP sockets for wall-clock runs. Call Start to begin producing
// blocks.
func NewBFTNode(sched *simclock.Scheduler, net simnet.Transport, c *Chain,
	ids []simnet.NodeID, regions []simnet.Region) (*BFTNode, error) {
	app := &bftApp{chain: c, sched: sched}
	cluster, err := tendermint.NewCluster(sched, net, app, c.cfg.BlockInterval, ids, regions)
	if err != nil {
		return nil, fmt.Errorf("bft node: %w", err)
	}
	return &BFTNode{Chain: c, Cluster: cluster, sched: sched, app: app}, nil
}

// Start launches consensus.
func (n *BFTNode) Start() { n.Cluster.Start() }

// Observe mirrors the node's Byzantine-resilience events (equivocation
// evidence from the cluster, bad committed payloads from the app) into the
// shared counter set.
func (n *BFTNode) Observe(c *metrics.Counters) {
	n.Cluster.Observe(c)
	n.app.counters = c
}

// PoWNode runs a chain under simulated proof-of-work: blocks are produced
// at exponentially distributed intervals (15 s mean in the paper's
// configuration) by a rotating set of miners.
type PoWNode struct {
	Chain *Chain
	sched *simclock.Scheduler
	timer *pow.Timer

	minerCount int
	nextMiner  int
}

// NewPoWNode creates a PoW-driven chain with the given (positive) miner
// count and a seeded block timer.
func NewPoWNode(sched *simclock.Scheduler, c *Chain, seed int64, minerCount int) *PoWNode {
	return &PoWNode{
		Chain:      c,
		sched:      sched,
		timer:      pow.NewTimer(seed, c.cfg.BlockInterval),
		minerCount: minerCount,
	}
}

// Start schedules block production.
func (n *PoWNode) Start() { n.scheduleNext() }

func (n *PoWNode) scheduleNext() {
	n.sched.After(n.timer.Next(), func() {
		miner := ProposerAddress(n.Chain.ChainID(), n.nextMiner)
		n.nextMiner = (n.nextMiner + 1) % n.minerCount
		n.Chain.ApplyBlock(n.Chain.ProposeBatch(), n.sched.NowUnix(), miner)
		n.scheduleNext()
	})
}

// ConnectHeaderRelayVia wires the light-client header feed from src to dst
// through a (possibly lossy) link — miners/validators of interoperating
// chains run exactly this kind of relay (paper §IV-A). Each committed block
// relays the last `window` headers plus the head height, so a dropped relay
// message heals as soon as any later one gets through — the retransmission
// behaviour real IBC relayers implement. The window is at least 1; use one
// comfortably larger than the longest outage, in blocks, the deployment
// should ride out.
func ConnectHeaderRelayVia(src, dst *Chain, link *simnet.Link, window int) {
	// A corrupted copy goes through the full untrusted decode and ingest,
	// and its rejection is counted on the link.
	forged := func(raw []byte) {
		cid, head, headers, err := decodeHeaderRelay(raw)
		if err == nil {
			err = dst.Headers().Update(cid, headers, head)
		}
		if err != nil {
			link.NoteRejected()
		}
	}
	src.OnBlock(func(b *types.Block, _ []*types.Receipt) {
		head := b.Header.Height
		lo := uint64(1)
		if head > uint64(window) {
			lo = head - uint64(window) + 1
		}
		headers := make([]*types.Header, 0, head-lo+1)
		for h := lo; h <= head; h++ {
			if hdr, ok := src.HeaderAt(h); ok {
				headers = append(headers, hdr)
			}
		}
		link.Deliver(func() {
			// Errors indicate a misconfigured relay (unknown chain); the
			// universe wiring registers params up front, so drop silently
			// is never expected — surface loudly.
			if err := dst.Headers().Update(src.ChainID(), headers, head); err != nil {
				panic(fmt.Sprintf("chain: header relay %s->%s: %v", src.ChainID(), dst.ChainID(), err))
			}
		}, func() []byte { return encodeHeaderRelay(src.ChainID(), head, headers) }, forged)
	})
}

// encodeHeaderRelay serializes one relay message: source chain id, head
// height, and the relayed header window.
func encodeHeaderRelay(chain hashing.ChainID, head uint64, headers []*types.Header) []byte {
	w := codec.NewWriter(32 + 192*len(headers))
	w.WriteUvarint(uint64(chain))
	w.WriteUvarint(head)
	w.WriteUvarint(uint64(len(headers)))
	for _, h := range headers {
		w.WriteBytes(h.Encode())
	}
	return w.Bytes()
}

// decodeHeaderRelay parses an untrusted relay message.
func decodeHeaderRelay(b []byte) (hashing.ChainID, uint64, []*types.Header, error) {
	r := codec.NewReader(b)
	chain := hashing.ChainID(r.ReadUvarint())
	head := r.ReadUvarint()
	n := r.ReadUvarint()
	headers := make([]*types.Header, 0, r.CapCount(n, 16))
	for i := uint64(0); i < n; i++ {
		enc := r.ReadBytes()
		if r.Err() != nil {
			return 0, 0, nil, r.Err()
		}
		h, err := types.DecodeHeader(enc)
		if err != nil {
			return 0, 0, nil, err
		}
		headers = append(headers, h)
	}
	if err := r.Finish(); err != nil {
		return 0, 0, nil, err
	}
	return chain, head, headers, nil
}
