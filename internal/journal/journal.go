// Package journal records what a simulated run committed, as text: one line
// per committed block per chain, in commit order, then labelled tail lines
// (Move results, counters). A digest test pins its sha256, and Check names
// the first line where a run parts from the last passing one. Only tests
// import it; it imports neither chain nor tendermint, whose tests use it.
package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/types"
)

// Journal is the text of one run, and beside it its state text: the same
// lines, but each block's header hash and receipts digest replaced by a
// digest of the receipts without their tx ids. The state text moves when a
// run commits other state or other outcomes, at other heights or times,
// and stays when only the bytes of the transactions that led there differ.
type Journal struct {
	// Now reads the simulated clock; Block stamps each line with it.
	Now         func() time.Duration
	text, state strings.Builder
}

// Block appends the line of one committed block:
//
//	chain 2 height 17 time 85 at 1m25.000000001s txs 3 root … hash … receipts …
//
// with the header's time (unix seconds), the clock's reading, and the first
// 8 bytes of the state root, the header hash and a digest of every receipt's
// tx id, status, gas, created address, error text and logs. The state
// text's line ends "root … outcomes …" instead, the last a digest of the
// receipts without their tx ids.
func (j *Journal) Block(b *types.Block, rs []*types.Receipt) {
	hd, hash, recs, outs := b.Header, b.Header.Hash(), receiptsDigest(rs, true), receiptsDigest(rs, false)
	line := fmt.Sprintf("chain %d height %d time %d at %v txs %d root %x",
		uint64(hd.ChainID), hd.Height, hd.Time, j.Now(), len(b.Txs), hd.StateRoot[:8])
	fmt.Fprintf(&j.text, "%s hash %x receipts %x\n", line, hash[:8], recs[:8])
	fmt.Fprintf(&j.state, "%s outcomes %x\n", line, outs[:8])
}

// receiptsDigest hashes every receipt's status, gas, created address, error
// text and logs, and with ids its tx id too.
func receiptsDigest(rs []*types.Receipt, ids bool) hashing.Hash {
	h := hashing.NewHasher(128 * len(rs))
	for _, r := range rs {
		if ids {
			h.Write(r.TxID[:])
		}
		h.Uvarint(uint64(r.Status))
		h.Uvarint(r.GasUsed)
		h.Write(r.Created[:])
		h.LenPrefixed([]byte(r.Err))
		h.Uvarint(uint64(len(r.Logs)))
		for _, l := range r.Logs {
			h.Write(l.Address[:])
			h.Uvarint(uint64(len(l.Topics)))
			for _, t := range l.Topics {
				h.Write(t[:])
			}
			h.LenPrefixed(l.Data)
		}
	}
	return h.Sum()
}

// Tail appends the line "label v1 v2 …", each value formatted with %v.
func (j *Journal) Tail(label string, vs ...any) {
	line := fmt.Sprintln(append([]any{label}, vs...)...)
	j.text.WriteString(line)
	j.state.WriteString(line)
}

// Counters appends one "counter name value" line per counter in name order,
// but for metrics.ProcessCounter's, which read wall time.
func (j *Journal) Counters(cs map[string]uint64) {
	for _, name := range slices.Sorted(maps.Keys(cs)) {
		if !metrics.ProcessCounter(name) {
			j.Tail("counter", name, cs[name])
		}
	}
}

// String returns the journal's text, each line ending in a newline.
func (j *Journal) String() string { return j.text.String() }

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// diff returns the number and both versions of the first line where two
// different texts part.
func diff(a, b string) string {
	as, bs := strings.SplitAfter(a, "\n"), strings.SplitAfter(b, "\n")
	i := 0
	for i < len(as) && i < len(bs) && as[i] == bs[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) && ls[i] != "" {
			return strings.TrimSuffix(ls[i], "\n")
		}
		return "(end of journal)"
	}
	return fmt.Sprintf("line %d:\n  - %s\n  + %s", i+1, line(as), line(bs))
}

// Same fails tb, naming the first line where they part, when the journal b
// of a run differs from a, an earlier run's; what names the runs. It returns
// the journal to compare the next run with: b when a is nil, else a.
func Same(tb testing.TB, what string, a, b *Journal) *Journal {
	tb.Helper()
	if a == nil {
		return b
	}
	if as, bs := a.String(), b.String(); as != bs {
		tb.Fatalf("%s: journals part at %s", what, diff(as, bs))
	}
	return a
}

// Check logs "identity: <test> <digest>" and "identity: <test> state
// <digest>", the second over the state text, and fails tb unless the first
// is want. A pass leaves the journal under os.TempDir() as the reference of
// this test and pin; a failure writes its own there too and names the
// first line where it parts from the reference.
func (j *Journal) Check(tb testing.TB, want string) {
	tb.Helper()
	text := j.String()
	got := digest(text)
	tb.Logf("identity: %s %s", tb.Name(), got)
	tb.Logf("identity: %s state %s", tb.Name(), digest(j.state.String()))
	ref := file(tb.Name(), want)
	if got == want {
		keep(tb, ref, text)
		return
	}
	mine := file(tb.Name(), got)
	keep(tb, mine, text)
	msg := "no reference journal at " + ref + ": a passing run of this test writes one"
	if old, err := os.ReadFile(ref); err == nil && digest(string(old)) == want {
		msg = "parts from the reference " + ref + " at " + diff(string(old), text)
	}
	tb.Fatalf("journal digest %s, pinned %s; %s\n(this run's journal: %s)", got, want, msg, mine)
}

// file is where the journal of test that hashes to sum is kept.
func file(test, sum string) string {
	return filepath.Join(os.TempDir(), "scmove-journal", strings.ReplaceAll(test, "/", "_")+"-"+sum[:16]+".txt")
}

// keep writes text to path, and only logs a failure: the pin is the check.
func keep(tb testing.TB, path, text string) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		tb.Logf("journal: %v", err)
	} else if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		tb.Logf("journal: %v", err)
	}
}
