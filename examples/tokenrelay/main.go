// Tokenrelay reenacts Fig. 3 of the paper: currency pegging via the Move
// protocol. Alice locks ether inside a pegged-token contract on the
// Ethereum-like chain; the contract moves to the Burrow-like chain where
// Bob mints tokens provably backed by the locked funds; burning them moves
// the contract home, unlocking the currency.
package main

import (
	"fmt"
	"os"
	"time"

	"scmove"
	"scmove/internal/contracts"
	"scmove/internal/u256"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tokenrelay:", err)
		os.Exit(1)
	}
}

func run() error {
	u, err := scmove.NewUniverse(scmove.TwoChainConfig(2))
	if err != nil {
		return err
	}
	alice, bob := u.Client(0), u.Client(1)
	ethereum, burrow := u.Chain(1), u.Chain(2)
	const locked = uint64(1_000_000_000_000)

	// Deploy the relay on Ethereum and lock funds for Bob (Tcreate).
	relayAddr, err := u.MustDeploy(alice, ethereum, scmove.TokenRelayContract, nil,
		u256.Zero(), 5*time.Minute)
	if err != nil {
		return err
	}
	rec, err := u.MustCall(alice, ethereum, relayAddr, contracts.EncodeCall("create",
		contracts.ArgUint(uint64(burrow.ChainID())), contracts.ArgAddress(bob.Address())),
		u256.FromUint64(locked), 5*time.Minute)
	if err != nil {
		return err
	}
	pegged, err := contracts.RelayCreated(rec.Logs)
	if err != nil {
		return err
	}
	fmt.Printf("locked %d wei in pegged contract %s (Move1 ran at creation)\n", locked, pegged)

	// Bob completes the move (any client may finish a pending move, §III-B).
	if _, err := u.CompleteAndWait(bob, 1, 2, pegged, 15*time.Minute); err != nil {
		return err
	}
	fmt.Printf("pegged contract recreated on %s\n", burrow.ChainID())

	// Tmint: Bob mints tokens backed by the ether locked on Ethereum.
	if _, err := u.MustCall(bob, burrow, pegged, contracts.EncodeCall("mint"),
		u256.Zero(), time.Minute); err != nil {
		return err
	}
	bal, err := burrow.StaticCall(bob.Address(), pegged,
		contracts.EncodeCall("tokenBalance", contracts.ArgAddress(bob.Address())))
	if err != nil {
		return err
	}
	fmt.Printf("bob minted %s pegged tokens on %s\n", u256.FromBytes(bal), burrow.ChainID())

	// Tokens circulate on Burrow like any balance.
	if _, err := u.MustCall(bob, burrow, pegged, contracts.EncodeCall("tokenTransfer",
		contracts.ArgAddress(alice.Address()), contracts.ArgU256(u256.FromUint64(400))),
		u256.Zero(), time.Minute); err != nil {
		return err
	}
	fmt.Println("bob paid alice 400 pegged tokens on the Burrow chain")
	if _, err := u.MustCall(alice, burrow, pegged, contracts.EncodeCall("tokenTransfer",
		contracts.ArgAddress(bob.Address()), contracts.ArgU256(u256.FromUint64(400))),
		u256.Zero(), time.Minute); err != nil {
		return err
	}

	// Burn everything and send the contract home; withdrawing on Ethereum
	// unlocks the original currency.
	if _, err := u.MustCall(bob, burrow, pegged, contracts.EncodeCall("burnAndReturn"),
		u256.Zero(), time.Minute); err != nil {
		return err
	}
	if _, err := u.CompleteAndWait(bob, 2, 1, pegged, 15*time.Minute); err != nil {
		return err
	}
	before := ethereum.StateDB().GetBalance(bob.Address())
	if _, err := u.MustCall(bob, ethereum, pegged, contracts.EncodeCall("withdraw"),
		u256.Zero(), 5*time.Minute); err != nil {
		return err
	}
	gained := ethereum.StateDB().GetBalance(bob.Address()).Sub(before)
	fmt.Printf("bob withdrew on %s: +%s wei (locked amount minus the tx fee)\n",
		ethereum.ChainID(), gained)
	return nil
}
