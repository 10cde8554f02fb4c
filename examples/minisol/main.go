// Minisol compiles a movable contract written in MiniSol (the paper's
// Solidity extension, §III-D, reimagined as a small language targeting this
// repository's EVM) and moves it between the two chains.
package main

import (
	"fmt"
	"os"
	"time"

	"scmove"
	"scmove/internal/lang"
	"scmove/internal/u256"
)

// source is Listing 1 of the paper plus a tiny guestbook payload.
const source = `
contract Guestbook {
    storage owner: address
    storage movedAt: uint
    storage signatures: map
    storage count: uint

    func init() {
        require(owner == 0)
        owner = sender
    }
    func sign(name: uint) {
        count = count + 1
        signatures[count] = name
        emit Signed(count)
    }
    func entry(i: uint) returns uint {
        return signatures[i]
    }
    func entries() returns uint {
        return count
    }
    func moveTo(target: uint) {
        require(owner == sender)     // Listing 1's owner guard
        require(now - movedAt >= 60) // one simulated minute of residency
        move(target)
    }
    func moveFinish() {
        movedAt = now
    }
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "minisol:", err)
		os.Exit(1)
	}
}

func run() error {
	code, err := lang.Compile(source)
	if err != nil {
		return err
	}
	fmt.Printf("compiled Guestbook to %d bytes of EVM bytecode\n", len(code))

	u, err := scmove.NewUniverse(scmove.TwoChainConfig(1))
	if err != nil {
		return err
	}
	client := u.Client(0)
	burrow, ethereum := u.Chain(2), u.Chain(1)

	// Deploy the bytecode on the Burrow-like chain.
	rec, err := u.WaitTx(burrow, client.Create(burrow, code, u256.Zero()), time.Minute)
	if err != nil {
		return err
	}
	book := rec.Created
	fmt.Printf("deployed at %s on %s\n", book, burrow.ChainID())

	// Sign it twice.
	if _, err := u.MustCall(client, burrow, book, lang.EncodeCall("init"), u256.Zero(), time.Minute); err != nil {
		return err
	}
	for i, name := range []uint64{0xA11CE, 0xB0B} {
		if _, err := u.MustCall(client, burrow, book,
			lang.EncodeCall("sign", u256.FromUint64(name)), u256.Zero(), time.Minute); err != nil {
			return err
		}
		fmt.Printf("signature %d recorded\n", i+1)
	}

	// Wait out the Listing-1 residency guard (one simulated minute since
	// movedAt), then move the guestbook to the Ethereum-like chain.
	u.Run(time.Minute)
	res, err := u.MoveAndWait(client, 2, 1, book, 10*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("moved to %s in %.0fs (simulated); move2 recreated %d storage entries for %d gas\n",
		ethereum.ChainID(), res.Total().Seconds(), 4, res.Move2Gas)

	// The signatures survived the move.
	n, err := ethereum.StaticCall(client.Address(), book, lang.EncodeCall("entries"))
	if err != nil {
		return err
	}
	fmt.Printf("guestbook on %s has %s entries:\n", ethereum.ChainID(), u256.FromBytes(n))
	for i := uint64(1); i <= u256.FromBytes(n).Uint64(); i++ {
		e, err := ethereum.StaticCall(client.Address(), book, lang.EncodeCall("entry", u256.FromUint64(i)))
		if err != nil {
			return err
		}
		fmt.Printf("  #%d: %s\n", i, u256.FromBytes(e))
	}
	return nil
}
