package journal

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/types"
)

// twoBlocks is a hand-built chain of two blocks: an empty one, then one
// with a failed create and a call that logged.
func twoBlocks() []*types.Block {
	b1 := &types.Block{Header: &types.Header{ChainID: 2, Height: 1, Time: 5,
		StateRoot: hashing.Sum([]byte("root 1"))}}
	b2 := &types.Block{Header: &types.Header{ChainID: 2, Height: 2, Time: 10, ParentHash: b1.Header.Hash(),
		StateRoot: hashing.Sum([]byte("root 2")), GasUsed: 74_000},
		Txs: []*types.Transaction{{Nonce: 0}, {Nonce: 1}}}
	return []*types.Block{b1, b2}
}

func twoReceipts() [][]*types.Receipt {
	return [][]*types.Receipt{nil, {
		{TxID: hashing.Sum([]byte("tx 0")), Status: types.ReceiptFailed, GasUsed: 53_000, Err: "out of gas"},
		{TxID: hashing.Sum([]byte("tx 1")), Status: types.ReceiptSuccess, GasUsed: 21_000,
			Logs: []*evm.Log{{Address: hashing.AddressFromBytes([]byte{7}),
				Topics: []hashing.Hash{hashing.Sum([]byte("Transfer"))}, Data: []byte{1, 2}}}},
	}}
}

// journalOf writes the two blocks at simulated instants 5 s and 10 s plus
// one ns, then a counter table with a process counter in it.
func journalOf(blocks []*types.Block, recs [][]*types.Receipt) *Journal {
	at := []time.Duration{5 * time.Second, 10*time.Second + 1}
	var k int
	j := &Journal{Now: func() time.Duration { return at[k] }}
	for k = range blocks {
		j.Block(blocks[k], recs[k])
	}
	j.Tail("latencies", []time.Duration{3 * time.Second, time.Minute})
	j.Counters(map[string]uint64{"wan.dropped": 4, "loopwait.sig.propose": 9, "relay.moves_completed": 1})
	return j
}

// TestJournalGolden pins the journal's format on a hand-built chain: a
// change to the line format moves every digest pin, and shows here first,
// as text.
func TestJournalGolden(t *testing.T) {
	const golden = `chain 2 height 1 time 5 at 5s txs 0 root 2b53d21379ba77e9 hash 030027950a1ab8c7 receipts e3b0c44298fc1c14
chain 2 height 2 time 10 at 10.000000001s txs 2 root f4cee9432566e6a4 hash 46af0e3517db17da receipts 3991bd6cdc10544f
latencies [3s 1m0s]
counter relay.moves_completed 1
counter wan.dropped 4
`
	j := journalOf(twoBlocks(), twoReceipts())
	if got := j.String(); got != golden {
		t.Fatalf("journal text moved, %s", diff(golden, got))
	}
	const state = `chain 2 height 1 time 5 at 5s txs 0 root 2b53d21379ba77e9 outcomes e3b0c44298fc1c14
chain 2 height 2 time 10 at 10.000000001s txs 2 root f4cee9432566e6a4 outcomes 12ca12a276c5a68e
latencies [3s 1m0s]
counter relay.moves_completed 1
counter wan.dropped 4
`
	if got := j.state.String(); got != state {
		t.Fatalf("state text moved, %s", diff(state, got))
	}
}

// TestJournalNamesFirstDifference edits one field at a time — a receipt's
// tx id, its gas, a log's data, a header's state root — and requires diff
// to name the line of that block and no other, and Same to report it. An
// edited tx id moves the full digest only; an edited receipt or root moves
// the state digest too.
func TestJournalNamesFirstDifference(t *testing.T) {
	ref := journalOf(twoBlocks(), twoReceipts())
	want := ref.String()
	for _, tc := range []struct {
		name       string
		edit       func([]*types.Block, [][]*types.Receipt)
		line       string
		stateMoves bool
	}{
		{"tx id", func(_ []*types.Block, rs [][]*types.Receipt) { rs[1][0].TxID[0] ^= 1 }, "line 2:", false},
		{"receipt gas", func(_ []*types.Block, rs [][]*types.Receipt) { rs[1][0].GasUsed++ }, "line 2:", true},
		{"log data", func(_ []*types.Block, rs [][]*types.Receipt) { rs[1][1].Logs[0].Data[1] = 3 }, "line 2:", true},
		{"state root", func(bs []*types.Block, _ [][]*types.Receipt) { bs[0].Header.StateRoot[0] ^= 1 }, "line 1:", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, rs := twoBlocks(), twoReceipts()
			tc.edit(bs, rs)
			j := journalOf(bs, rs)
			got := j.String()
			d := diff(want, got)
			if !strings.HasPrefix(d, tc.line) || strings.Count(d, "\n") != 2 {
				t.Fatalf("edit of the %s reported as %q, want the %s line", tc.name, d, tc.line)
			}
			if digest(got) == digest(want) {
				t.Fatalf("edit of the %s left the digest", tc.name)
			}
			if moved := j.state.String() != ref.state.String(); moved != tc.stateMoves {
				t.Fatalf("edit of the %s: state digest moved %v, want %v", tc.name, moved, tc.stateMoves)
			}
			ft := &fakeTB{TB: t}
			Same(ft, "runs", journalOf(twoBlocks(), twoReceipts()), journalOf(bs, rs))
			if !strings.Contains(ft.msg, "runs: journals part at "+tc.line) {
				t.Fatalf("Same reported %q", ft.msg)
			}
		})
	}
	if d := diff(want, strings.TrimSuffix(want, "counter wan.dropped 4\n")); !strings.HasPrefix(d, "line 5:") ||
		!strings.HasSuffix(d, "+ (end of journal)") {
		t.Fatalf("a journal cut short is reported as %q", d)
	}
}

// TestCheckNamesLineAgainstReference: a passing Check leaves its journal as
// the reference of the test and pin, and a later run that moved one
// receipt's gas fails naming that block's line of it.
func TestCheckNamesLineAgainstReference(t *testing.T) {
	pass := journalOf(twoBlocks(), twoReceipts())
	pin := digest(pass.String())
	pass.Check(t, pin)
	bs, rs := twoBlocks(), twoReceipts()
	rs[1][1].GasUsed--
	ft := &fakeTB{TB: t}
	journalOf(bs, rs).Check(ft, pin)
	if !strings.Contains(ft.msg, "parts from the reference "+file(t.Name(), pin)+" at line 2:") {
		t.Fatalf("Check reported %q", ft.msg)
	}
}

// fakeTB records the message Same fails with instead of failing.
type fakeTB struct {
	testing.TB
	msg string
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Fatalf(format string, args ...any) { f.msg = fmt.Sprintf(format, args...) }
