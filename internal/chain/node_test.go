package chain

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"scmove/internal/core"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
	"scmove/internal/types"
)

// requireRoundTrip requires dec, decoded from tx's encoding, to equal tx
// field for field, id included. A committing node applies its own
// proposal's transactions instead of decoding their bytes, which is sound
// only because of this, and because nothing edits a transaction once it is
// signed or decoded: an edited one keeps its old id and fails here.
func requireRoundTrip(t testing.TB, dec, tx *types.Transaction) {
	t.Helper()
	same := dec.ChainID == tx.ChainID && dec.Nonce == tx.Nonce && dec.Kind == tx.Kind &&
		dec.From == tx.From && dec.To == tx.To && dec.Value.Eq(tx.Value) &&
		dec.GasLimit == tx.GasLimit && dec.GasPrice.Eq(tx.GasPrice) &&
		bytes.Equal(dec.Data, tx.Data) && (dec.Move2 == nil) == (tx.Move2 == nil) &&
		bytes.Equal(dec.Sig.PubKey, tx.Sig.PubKey) && bytes.Equal(dec.Sig.R, tx.Sig.R) &&
		bytes.Equal(dec.Sig.S, tx.Sig.S) && dec.ID() == tx.ID()
	if same && tx.Move2 != nil {
		d, p := dec.Move2, tx.Move2
		same = d.Contract == p.Contract && d.SourceChain == p.SourceChain &&
			d.SourceHeight == p.SourceHeight && bytes.Equal(d.AccountProof, p.AccountProof) &&
			bytes.Equal(d.Code, p.Code) && slices.Equal(d.Storage, p.Storage)
	}
	if !same {
		t.Fatalf("transaction %s does not survive its encoding:\n got %+v\nwant %+v", tx.ID(), dec, tx)
	}
}

// TestHeaderRelayConnectSendsHead: a relay connected to a source past
// genesis delivers the source's head one relay delay later, with no new
// block on the source, so a Move1 committed before the relay existed is
// provable on the target.
func TestHeaderRelayConnectSendsHead(t *testing.T) {
	kp := keys.Deterministic(1)
	sched := simclock.New()
	src := newChain(t, ethConfig(1), nil, kp)
	dst := newChain(t, burrowConfig(2), []core.ChainParams{ethConfig(1).Params()}, kp)
	for h := uint64(1); h <= 3; h++ {
		src.ApplyBlock(src.ProposeBatch(), 15*h, ProposerAddress(1, 0))
	}
	const delay = 50 * time.Millisecond
	ConnectHeaderRelayVia(src, dst, simnet.NewLink(sched, delay, simnet.LinkFaults{}, 1), 2)
	sched.RunUntil(delay - time.Nanosecond)
	if got := dst.Headers().Head(1); got != 0 {
		t.Fatalf("target saw source head %d before the relay delay", got)
	}
	sched.RunUntil(delay)
	if got := dst.Headers().Head(1); got != 3 {
		t.Fatalf("target's view of the source head = %d one relay delay after connecting, want 3", got)
	}
	if src.Head().Height != 3 {
		t.Fatalf("source height %d: the test must commit no block after connecting", src.Head().Height)
	}
}

// TestBFTCommitAppliesOwnProposal: a cluster whose decided payloads are the
// ones its app proposed applies the pooled transactions themselves, never a
// decoded copy — every committed transaction is the very object submitted.
func TestBFTCommitAppliesOwnProposal(t *testing.T) {
	kp := keys.Deterministic(1)
	sched := simclock.New()
	net := simnet.New(sched, simnet.Config{Seed: 1, Faults: simnet.LinkFaults{JitterFrac: 0.1}})
	cfg := burrowConfig(2)
	cfg.BlockInterval = 5 * time.Second
	c := newChain(t, cfg, nil, kp)
	ids := []simnet.NodeID{1, 2, 3, 4}
	regions := make([]simnet.Region, len(ids))
	node, err := NewBFTNode(sched, net, c, ids, regions)
	if err != nil {
		t.Fatal(err)
	}
	var submitted, committed []*types.Transaction
	for n := uint64(0); n < 5; n++ {
		tx := signedCall(t, kp, 2, n, hashing.AddressFromBytes([]byte{7}), nil, 1)
		if err := c.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, tx)
	}
	c.OnBlock(func(b *types.Block, _ []*types.Receipt) { committed = append(committed, b.Txs...) })
	node.Start()
	sched.RunUntil(time.Minute)
	if len(committed) != len(submitted) {
		t.Fatalf("%d transactions committed, want %d", len(committed), len(submitted))
	}
	for i, tx := range committed {
		if tx != submitted[i] {
			t.Fatalf("committed transaction %d is a decoded copy, not the proposed object", i)
		}
	}
}

// TestBFTCommitDecodesOtherPayloads: only a decided payload byte-identical
// to the app's last proposal is applied from the proposal's transactions —
// also when it arrives as another slice, as over TCP. Another validator's
// proposal, a payload decided with no proposal of this app's, and an
// equivocating twin are decoded; the twin does not decode and commits an
// empty block, counted as a bad payload.
func TestBFTCommitDecodesOtherPayloads(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, burrowConfig(2), nil, kp)
	counters := metrics.NewCounters()
	app := &bftApp{chain: c, sched: simclock.New(), counters: counters}
	pooled := make([]*types.Transaction, 4)
	for n := range pooled {
		pooled[n] = signedCall(t, kp, 2, uint64(n), hashing.AddressFromBytes([]byte{7}), nil, 1)
		if err := c.SubmitTx(pooled[n]); err != nil {
			t.Fatal(err)
		}
	}
	var applied []*types.Transaction
	c.OnBlock(func(b *types.Block, _ []*types.Receipt) { applied = b.Txs })

	// Height 1: the same bytes, delivered as a copy.
	payload := app.Propose(1)
	app.Commit(1, append([]byte(nil), payload...))
	if len(applied) != len(pooled) || applied[0] != pooled[0] || applied[3] != pooled[3] {
		t.Fatalf("own proposal: applied %d transactions, not the proposed objects", len(applied))
	}
	if app.proposed != nil || app.proposedTxs != nil {
		t.Fatal("Commit kept the proposal")
	}

	// Height 2: this app proposed the one transaction pending, but another
	// validator's empty proposal was decided.
	next := signedCall(t, kp, 2, 4, hashing.AddressFromBytes([]byte{7}), nil, 1)
	if err := c.SubmitTx(next); err != nil {
		t.Fatal(err)
	}
	app.Propose(2)
	app.Commit(2, EncodeTxList(nil))
	if len(applied) != 0 || counters.Get("byzantine.badpayload.committed") != 0 {
		t.Fatal("another validator's empty proposal did not commit an empty block")
	}

	// Height 3: nothing proposed here; the pending transaction was decided.
	app.Commit(3, EncodeTxList([]*types.Transaction{next}))
	if len(applied) != 1 || applied[0] == next || applied[0].ID() != next.ID() {
		t.Fatal("a payload decided without a proposal of this app's was not decoded")
	}

	// Height 4: the equivocating twin of this app's own proposal.
	late := signedCall(t, kp, 2, 5, hashing.AddressFromBytes([]byte{7}), nil, 1)
	if err := c.SubmitTx(late); err != nil {
		t.Fatal(err)
	}
	own := app.Propose(4)
	twin := append(append([]byte(nil), own...), 0xDE, 0xAD, 4)
	app.Commit(4, twin)
	if len(applied) != 0 || counters.Get("byzantine.badpayload.committed") != 1 {
		t.Fatalf("twin: applied %d transactions, %d bad payloads counted; want 0 and 1",
			len(applied), counters.Get("byzantine.badpayload.committed"))
	}
}

// TestBFTCommitCatchesEditedProposal: applying the proposal's own
// transactions is sound only while they still encode to the decided bytes.
// A transaction edited between Propose and Commit must panic under go test
// rather than apply content nobody agreed on.
func TestBFTCommitCatchesEditedProposal(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, burrowConfig(2), nil, kp)
	app := &bftApp{chain: c, sched: simclock.New()}
	tx := signedCall(t, kp, 2, 0, hashing.AddressFromBytes([]byte{7}), nil, 1)
	if err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	payload := app.Propose(1)
	if len(app.proposedTxs) != 1 || app.proposedTxs[0] != tx {
		t.Fatalf("proposed %d transactions, want the one submitted", len(app.proposedTxs))
	}
	tx.GasLimit++
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "edited between Propose and Commit") {
			t.Fatalf("Commit of a proposal edited after Propose: recovered %q, want the edit panic", r)
		}
	}()
	app.Commit(1, payload)
}

// TestBFTProposalBytesStayPut: six blocks of one transfer each, proposed
// back to back, so consecutive proposal payloads have equal lengths and
// different bytes. The cluster's payload-hash memo knows a payload by its
// slice alone and, under go test, re-hashes on every hit: a Propose that
// encoded into its previous proposal's buffer would hand it the same slice
// with new bytes, and it would panic. Each height commits its own transfer.
func TestBFTProposalBytesStayPut(t *testing.T) {
	kp := keys.Deterministic(1)
	sched := simclock.New()
	net := simnet.New(sched, simnet.Config{Seed: 1})
	cfg := burrowConfig(2)
	cfg.BlockInterval = 5 * time.Second
	cfg.MaxBlockTxs = 1
	c := newChain(t, cfg, nil, kp)
	ids := []simnet.NodeID{1, 2, 3, 4}
	node, err := NewBFTNode(sched, net, c, ids, make([]simnet.Region, len(ids)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var submitted []*types.Transaction
	for i := uint64(0); i < n; i++ {
		tx := signedCall(t, kp, 2, i, hashing.AddressFromBytes([]byte{7, byte(i)}), nil, 1+i)
		if err := c.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, tx)
	}
	var payloads [][]byte
	c.OnBlock(func(b *types.Block, _ []*types.Receipt) {
		if len(b.Txs) > 0 {
			payloads = append(payloads, EncodeTxList(b.Txs))
		}
	})
	node.Start()
	sched.RunUntil(time.Minute)
	if len(payloads) != n {
		t.Fatalf("%d blocks with transactions, want %d", len(payloads), n)
	}
	equalLengths := 0
	for i, p := range payloads {
		if want := EncodeTxList(submitted[i : i+1]); !bytes.Equal(p, want) {
			t.Fatalf("height %d committed another payload than its own transfer", i+1)
		}
		if i > 0 && len(p) == len(payloads[i-1]) {
			equalLengths++
		}
	}
	if equalLengths == 0 {
		t.Fatal("no two consecutive payloads have equal lengths: the run cannot catch a rewritten buffer")
	}
}
