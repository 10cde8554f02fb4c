// Package oracle checks the Move protocol's safety properties (paper §III)
// after every committed block of a running universe:
//
//   - a contract is unlocked on at most one chain;
//   - Lc on a locked copy names the chain where the contract next appears;
//   - move nonces are strictly monotone per contract: every Move1 locks at
//     a higher nonce than the Move1 before it, every successful Move2
//     installs a higher nonce than the Move2 before it, and no chain's copy
//     ever goes back.
//
// Only tests import it. It reads state through the chains' query accessors
// and changes nothing, so a cell's journal, which it writes, is the same.
package oracle

import (
	"fmt"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/hashing"
	"scmove/internal/journal"
	"scmove/internal/types"
)

// Universe is what Attach needs of a universe: its chains in order, its clock.
type Universe interface {
	ChainIDs() []hashing.ChainID
	Chain(hashing.ChainID) *chain.Chain
	Now() time.Duration
}

// copyState is one chain's copy of a contract as the oracle last read it.
type copyState struct {
	live  bool            // present and writable here (Lc is this chain)
	lc    hashing.ChainID // Lc of a locked copy
	nonce uint64
}

// record is everything the oracle knows about one contract.
type record struct {
	copies map[hashing.ChainID]copyState
	// moved is set by the first Move1 the oracle saw; next is the Lc of
	// the latest one until the contract appears somewhere.
	moved bool
	next  hashing.ChainID
	// lockNonce and installNonce are the nonces of the latest Move1 and of
	// the latest successful Move2.
	lockNonce, installNonce uint64
}

// Oracle holds the per-contract view that the checks compare against. The
// listeners of one universe fire on its event loop, one at a time.
type Oracle struct {
	chains     map[hashing.ChainID]*chain.Chain
	order      []hashing.ChainID
	contracts  map[hashing.Address]*record
	tracked    []hashing.Address // in discovery order, for deterministic reports
	blocks     int
	locks      int
	violations []error
	// Journal has a line per block checked, stamped with its commit instant.
	Journal *journal.Journal
}

// Attach registers the oracle as a block listener on every chain of u. It
// tracks each contract from its creation, its first Move1 or its first
// Move2 in a committed block; contracts pre-deployed at genesis on every
// shard (registries, token factories) are meant to be live everywhere and
// are not tracked until one of them moves.
func Attach(u Universe) *Oracle {
	o := &Oracle{
		chains:    map[hashing.ChainID]*chain.Chain{},
		contracts: map[hashing.Address]*record{},
		Journal:   &journal.Journal{Now: u.Now},
	}
	for _, id := range u.ChainIDs() {
		c := u.Chain(id)
		o.chains[id] = c
		o.order = append(o.order, id)
		c.OnBlock(func(b *types.Block, rs []*types.Receipt) { o.onBlock(id, b, rs) })
	}
	return o
}

// Check fails tb with every violation seen so far, or when the oracle has
// seen no Move1: the run would then have checked nothing. It only reports
// (tb.Error), so a test may defer it and still list what the oracle saw
// after the run itself failed.
func (o *Oracle) Check(tb testing.TB) {
	tb.Helper()
	for _, v := range o.violations {
		tb.Error(v)
	}
	if o.locks == 0 {
		tb.Errorf("oracle: %d blocks checked, no Move1 among them; the check is vacuous", o.blocks)
	}
	tb.Logf("oracle: %d blocks, %d contracts, %d Move1s checked", o.blocks, len(o.tracked), o.locks)
}

// During sets *hook to attach an oracle to the universe that run builds,
// runs run, checks the oracle and returns its journal; hook is the seam of
// the code under test (workload.inspectUniverse, bench.inspectUniverse). It
// reports also when run itself failed, and fails tb if run built no universe.
func During[U Universe](tb testing.TB, hook *func(U), run func()) *journal.Journal {
	tb.Helper()
	var o *Oracle
	*hook = func(u U) { o = Attach(u) }
	defer func() {
		*hook = nil
		if o == nil {
			tb.Error("oracle: the run built no universe to check")
			return
		}
		o.Check(tb)
	}()
	run()
	if o == nil {
		return new(journal.Journal)
	}
	return o.Journal
}

func (o *Oracle) failf(x hashing.ChainID, height uint64, format string, args ...any) {
	o.violations = append(o.violations,
		fmt.Errorf("oracle: chain %s height %d: %s", x, height, fmt.Sprintf(format, args...)))
}

// read returns the current copy of contract on chain id.
func (o *Oracle) read(id hashing.ChainID, contract hashing.Address) copyState {
	acct, ok := o.chains[id].QueryAccount(contract)
	if !ok {
		return copyState{}
	}
	live := acct.Location == id || acct.Location == 0
	return copyState{live: live, lc: acct.Location, nonce: acct.MoveNonce}
}

// track starts following contract, first seen in a block on chain x whose
// copy there was, before that block, as given. Every other chain's copy is
// read as it stands.
func (o *Oracle) track(x hashing.ChainID, contract hashing.Address, before copyState) {
	if o.contracts[contract] != nil {
		return
	}
	r := &record{copies: map[hashing.ChainID]copyState{}}
	for _, id := range o.order {
		if id != x {
			r.copies[id] = o.read(id, contract)
		}
	}
	r.copies[x] = before
	o.contracts[contract] = r
	o.tracked = append(o.tracked, contract)
}

func (o *Oracle) onBlock(x hashing.ChainID, b *types.Block, receipts []*types.Receipt) {
	o.Journal.Block(b, receipts)
	o.blocks++
	h := b.Header.Height
	var installed []hashing.Address
	for i, tx := range b.Txs {
		if !receipts[i].Succeeded() {
			continue
		}
		switch {
		case !receipts[i].Created.IsZero():
			o.track(x, receipts[i].Created, copyState{})
		case tx.Move2 != nil:
			o.track(x, tx.Move2.Contract, copyState{})
			installed = append(installed, tx.Move2.Contract)
		default:
			if _, ok := core.ParseMoveToInput(tx.Data); ok {
				// A Move1 only runs on a writable copy.
				o.track(x, tx.To, copyState{live: true})
			}
		}
	}

	for _, contract := range o.tracked {
		r := o.contracts[contract]
		old, now := r.copies[x], o.read(x, contract)
		r.copies[x] = now
		if now.nonce < old.nonce {
			o.failf(x, h, "%s: copy's move nonce went back from %d to %d", contract, old.nonce, now.nonce)
		}
		switch {
		case old.live && !now.live: // Move1
			o.locks++
			if now.nonce <= r.lockNonce {
				o.failf(x, h, "%s: Move1 locked at move nonce %d, an earlier Move1 at %d", contract, now.nonce, r.lockNonce)
			}
			r.moved, r.next, r.lockNonce = true, now.lc, now.nonce
		case !old.live && now.live: // appeared here
			for _, id := range o.order {
				if id != x && r.copies[id].live {
					o.failf(x, h, "%s: unlocked here while still unlocked on chain %s", contract, id)
				}
			}
			if r.moved && r.next != x {
				o.failf(x, h, "%s: appeared here, but the latest locked copy names %s", contract, r.next)
			}
			r.next = 0
		}
	}

	for i, contract := range installed {
		for _, earlier := range installed[:i] {
			if earlier == contract {
				o.failf(x, h, "%s: two successful Move2s in one block", contract)
			}
		}
		r := o.contracts[contract]
		n := r.copies[x].nonce
		if n <= r.installNonce {
			o.failf(x, h, "%s: Move2 installed move nonce %d, an earlier Move2 %d", contract, n, r.installNonce)
		}
		r.installNonce = n
	}
}
