// Kitties demonstrates cross-chain breeding (§V-B): every cat is its own
// movable contract, so when two cats live on different chains, one of them
// migrates — not the whole game — and the pair breeds where they meet.
package main

import (
	"fmt"
	"os"
	"time"

	"scmove"
	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kitties:", err)
		os.Exit(1)
	}
}

func run() error {
	// The game registry is pre-deployed at the same address on both chains
	// (genesis), so cat identifiers stay attestable wherever they migrate.
	registry := contracts.WellKnown("kitties-registry")
	owner := universe.ClientKey(0).Address()
	cfg := scmove.TwoChainConfig(2)
	cfg.ExtraGenesis = func(_ hashing.ChainID, db *state.DB) {
		contracts.GenesisKittyRegistry(db, registry, owner)
	}
	u, err := scmove.NewUniverse(cfg)
	if err != nil {
		return err
	}
	gameOwner, breeder := u.Client(0), u.Client(1)
	ethereum, burrow := u.Chain(1), u.Chain(2)

	// Two promotional cats, one per chain, both owned by the breeder.
	luna, err := promo(u, gameOwner, ethereum, registry, 0x11, breeder.Address())
	if err != nil {
		return err
	}
	max, err := promo(u, gameOwner, burrow, registry, 0x22, breeder.Address())
	if err != nil {
		return err
	}
	fmt.Printf("luna lives on %s, max on %s\n", ethereum.ChainID(), burrow.ChainID())

	// Luna migrates to Burrow (Move1 on Ethereum, Move2 on Burrow).
	res, err := u.MoveAndWait(breeder, 1, 2, luna.addr, 20*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("luna moved to %s in %.0fs (simulated), gas %d\n",
		burrow.ChainID(), res.Total().Seconds(), res.Move1Gas+res.Move2Gas)

	// Breed on Burrow; giveBirth deploys the kitten as a fresh contract.
	rec, err := u.MustCall(breeder, burrow, registry, contracts.EncodeCall("breed",
		contracts.ArgAddress(luna.addr), contracts.ArgUint(luna.salt),
		contracts.ArgAddress(max.addr), contracts.ArgUint(max.salt)),
		u256.Zero(), time.Minute)
	if err != nil {
		return err
	}
	pregnancy, err := contracts.Pregnant(rec.Logs)
	if err != nil {
		return err
	}
	rec, err = u.MustCall(breeder, burrow, registry,
		contracts.EncodeCall("giveBirth", contracts.ArgUint(pregnancy)), u256.Zero(), time.Minute)
	if err != nil {
		return err
	}
	kitten, err := contracts.KittyCreated(rec.Logs)
	if err != nil {
		return err
	}
	genes, err := burrow.StaticCall(breeder.Address(), kitten, contracts.EncodeCall("genes"))
	if err != nil {
		return err
	}
	fmt.Printf("kitten %s born on %s with genes %x…\n", kitten, burrow.ChainID(), genes[:8])

	parents, err := burrow.StaticCall(breeder.Address(), kitten, contracts.EncodeCall("parents"))
	if err != nil {
		return err
	}
	fmt.Printf("lineage: %x… and %x…\n", parents[:4], parents[20:24])
	return nil
}

type cat struct {
	addr scmove.Address
	salt uint64
}

func promo(u *scmove.Universe, gameOwner *scmove.Client, c *chain.Chain,
	registry scmove.Address, genes byte, owner scmove.Address) (cat, error) {
	var g evm.Word
	g[31] = genes
	rec, err := u.MustCall(gameOwner, c, registry, contracts.EncodeCall("createPromoKitty",
		contracts.ArgWord(g), contracts.ArgAddress(owner)), u256.Zero(), 5*time.Minute)
	if err != nil {
		return cat{}, err
	}
	addr, err := contracts.KittyCreated(rec.Logs)
	if err != nil {
		return cat{}, err
	}
	ret, err := c.StaticCall(owner, addr, contracts.EncodeCall("salt"))
	if err != nil {
		return cat{}, err
	}
	return cat{addr: addr, salt: u256.FromBytes(ret).Uint64()}, nil
}
