package bench

import (
	"fmt"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/state"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// IBC application names (the five workloads of Figs. 8 and 9).
const (
	AppSCoin    = "SCoin"
	AppKitties  = "ScalableKitties"
	AppStore1   = "Store 1"
	AppStore10  = "Store 10"
	AppStore100 = "Store 100"
)

// IBCApps lists the applications in the paper's presentation order.
var IBCApps = []string{AppSCoin, AppKitties, AppStore1, AppStore10, AppStore100}

// Paper §VIII monetary conversion: 2 Gwei per gas, $144 per ETH
// (December 2019).
const (
	GweiPerGas = 2.0
	USDPerEth  = 144.0
)

// GasToUSD converts a gas amount to dollars at the paper's rates.
func GasToUSD(gas uint64) float64 {
	return float64(gas) * GweiPerGas * 1e-9 * USDPerEth
}

// IBCRow is one bar group of Figs. 8 and 9: one application moved in one
// direction, with the per-phase latency and gas breakdown.
type IBCRow struct {
	App  string
	From hashing.ChainID // 1 = Ethereum-like, 2 = Burrow-like
	To   hashing.ChainID

	// Latency phases (Fig. 8): Move1 inclusion, the p-block wait plus proof
	// acquisition, Move2 inclusion, and the application's follow-up
	// transactions on the target chain.
	Move1, WaitProof, Move2, Complete time.Duration

	// Gas phases (Fig. 9). CreateGas is the portion of Move2Gas plus
	// CompleteGas that pays for contract (re)creation — the hatched bars.
	Move1Gas, Move2Gas, CompleteGas, CreateGas uint64
}

// TotalLatency is the end-to-end operation time.
func (r IBCRow) TotalLatency() time.Duration {
	return r.Move1 + r.WaitProof + r.Move2 + r.Complete
}

// TotalGas sums all phases.
func (r IBCRow) TotalGas() uint64 { return r.Move1Gas + r.Move2Gas + r.CompleteGas }

// USD converts the total gas at the paper's rates.
func (r IBCRow) USD() float64 { return GasToUSD(r.TotalGas()) }

// DirectionName renders the paper's panel title.
func (r IBCRow) DirectionName() string {
	if r.From == 2 {
		return "Burrow to Ethereum"
	}
	return "Ethereum to Burrow"
}

// IBCResult reproduces Figs. 8 and 9.
type IBCResult struct {
	Rows []IBCRow
}

// RunFig8And9 runs every application in both directions on fresh
// two-chain universes (chain 1 Ethereum-like PoW p=6, chain 2 Burrow-like
// BFT p=2, §VI).
func RunFig8And9() (*IBCResult, error) {
	res := &IBCResult{}
	for _, dir := range []struct{ from, to hashing.ChainID }{{2, 1}, {1, 2}} {
		for _, app := range IBCApps {
			row, err := runIBCApp(app, dir.from, dir.to)
			if err != nil {
				return nil, fmt.Errorf("ibc %s %s->%s: %w", app, dir.from, dir.to, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// ibcUniverse builds the two-chain deployment with the shared factories in
// genesis.
func ibcUniverse() (*universe.Universe, error) {
	owner := universe.ClientKey(0).Address()
	cfg := universe.DefaultConfig(2)
	cfg.ExtraGenesis = func(_ hashing.ChainID, db *state.DB) {
		contracts.GenesisSCoin(db, contracts.WellKnown("scoin-factory"), owner, u256.FromUint64(1_000_000))
		contracts.GenesisKittyRegistry(db, contracts.WellKnown("kitties-registry"), owner)
	}
	return universe.New(cfg)
}

// runIBCApp measures one application in one direction.
func runIBCApp(app string, from, to hashing.ChainID) (IBCRow, error) {
	u, err := ibcUniverse()
	if err != nil {
		return IBCRow{}, err
	}
	u.Start()
	cl := u.Client(0)
	src, dst := u.Chain(from), u.Chain(to)
	row := IBCRow{App: app, From: from, To: to}
	const setupTimeout = 10 * time.Minute

	// followUps runs the app's post-move transactions and accumulates their
	// latency and gas.
	var followUps func(contract hashing.Address) error

	var moved hashing.Address
	switch app {
	case AppStore1, AppStore10, AppStore100:
		n := map[string]uint64{AppStore1: 1, AppStore10: 10, AppStore100: 100}[app]
		moved, err = u.MustDeploy(cl, src, contracts.StoreName,
			contracts.StoreConstructorArgs(cl.Address(), n), u256.Zero(), setupTimeout)
		if err != nil {
			return row, err
		}
		followUps = func(hashing.Address) error { return nil }

	case AppSCoin:
		factory := contracts.WellKnown("scoin-factory")
		accA, err := newTokenAccount(u, cl, src, factory)
		if err != nil {
			return row, err
		}
		accB, err := newTokenAccount(u, cl, dst, factory)
		if err != nil {
			return row, err
		}
		moved = accA.addr
		followUps = func(contract hashing.Address) error {
			// Transfer one token to the account on the target chain.
			rec, err := u.MustCall(cl, dst, contract, contracts.EncodeCall("transfer",
				contracts.ArgAddress(accB.addr), contracts.ArgUint(accB.salt),
				contracts.ArgU256(u256.FromUint64(1))), u256.Zero(), setupTimeout)
			if err != nil {
				return err
			}
			row.CompleteGas += rec.GasUsed
			return nil
		}

	case AppKitties:
		registry := contracts.WellKnown("kitties-registry")
		catA, err := newPromoKitty(u, cl, src, registry, 1)
		if err != nil {
			return row, err
		}
		catB, err := newPromoKitty(u, cl, dst, registry, 2)
		if err != nil {
			return row, err
		}
		moved = catA.addr
		followUps = func(contract hashing.Address) error {
			// Breed the migrated cat with the resident one, then give birth
			// (two transactions, §VIII).
			rec, err := u.MustCall(cl, dst, registry, contracts.EncodeCall("breed",
				contracts.ArgAddress(contract), contracts.ArgUint(catA.salt),
				contracts.ArgAddress(catB.addr), contracts.ArgUint(catB.salt)), u256.Zero(), setupTimeout)
			if err != nil {
				return err
			}
			row.CompleteGas += rec.GasUsed
			pregnancy, err := contracts.Pregnant(rec.Logs)
			if err != nil {
				return err
			}
			rec, err = u.MustCall(cl, dst, registry,
				contracts.EncodeCall("giveBirth", contracts.ArgUint(pregnancy)), u256.Zero(), setupTimeout)
			if err != nil {
				return err
			}
			row.CompleteGas += rec.GasUsed
			// giveBirth deploys the child contract: creation gas again.
			row.CreateGas += createGasOf(dst.Config().Schedule, dst.Config().Natives,
				evm.NativeCode(contracts.KittyName))
			return nil
		}

	default:
		return row, fmt.Errorf("unknown app %q", app)
	}

	moveRes, err := u.MoveAndWait(cl, from, to, moved, 30*time.Minute)
	if err != nil {
		return row, err
	}
	row.Move1 = moveRes.Move1Latency()
	row.WaitProof = moveRes.WaitProofLatency()
	row.Move2 = moveRes.Move2Latency()
	row.Move1Gas = moveRes.Move1Gas
	row.Move2Gas = moveRes.Move2Gas
	// The recreation inside Move2 pays creation gas (hatched bar share).
	row.CreateGas += createGasOf(dst.Config().Schedule, dst.Config().Natives,
		dst.StateDB().GetCode(moved))

	completeStart := u.Sched.Now()
	if err := followUps(moved); err != nil {
		return row, err
	}
	row.Complete = u.Sched.Now() - completeStart
	return row, nil
}

// createGasOf prices a contract creation under a chain's schedule.
func createGasOf(sched evm.Schedule, reg *evm.Registry, code []byte) uint64 {
	return sched.Create + sched.CodeByte*evm.BillableCodeSize(reg, code)
}

type namedAccount struct {
	addr hashing.Address
	salt uint64
}

// newTokenAccount creates an SAccount via the chain's token factory.
func newTokenAccount(u *universe.Universe, cl *relay.Client, c *chain.Chain,
	factory hashing.Address) (namedAccount, error) {
	rec, err := u.MustCall(cl, c, factory, contracts.EncodeCall("newAccount"),
		u256.Zero(), 10*time.Minute)
	if err != nil {
		return namedAccount{}, err
	}
	addr, salt, err := contracts.CreatedAccount(rec.Logs)
	return namedAccount{addr: addr, salt: salt}, err
}

// newPromoKitty mints a promotional cat owned by the client.
func newPromoKitty(u *universe.Universe, cl *relay.Client, c *chain.Chain,
	registry hashing.Address, genes byte) (namedAccount, error) {
	var g evm.Word
	g[31] = genes
	rec, err := u.MustCall(cl, c, registry, contracts.EncodeCall("createPromoKitty",
		contracts.ArgWord(g), contracts.ArgAddress(cl.Address())), u256.Zero(), 10*time.Minute)
	if err != nil {
		return namedAccount{}, err
	}
	addr, err := contracts.KittyCreated(rec.Logs)
	if err != nil {
		return namedAccount{}, err
	}
	ret, err := c.StaticCall(cl.Address(), addr, contracts.EncodeCall("salt"))
	if err != nil {
		return namedAccount{}, err
	}
	return namedAccount{addr: addr, salt: u256.FromBytes(ret).Uint64()}, nil
}

// String renders the Fig. 8 and Fig. 9 tables.
func (r *IBCResult) String() string {
	out := "Fig. 8: IBC latency per phase (seconds)\n"
	lat := metrics.NewTable("direction", "app", "move1", "wait+proof", "move2", "complete", "total")
	for _, row := range r.Rows {
		lat.AddRow(row.DirectionName(), row.App, fmtDur(row.Move1), fmtDur(row.WaitProof),
			fmtDur(row.Move2), fmtDur(row.Complete), fmtDur(row.TotalLatency()))
	}
	out += lat.String()
	out += "\nFig. 9: IBC gas and monetary cost\n"
	gas := metrics.NewTable("direction", "app", "move1 gas", "move2 gas", "complete gas", "create share", "total Mgas", "price $")
	for _, row := range r.Rows {
		createShare := 0.0
		if row.TotalGas() > 0 {
			createShare = float64(row.CreateGas) / float64(row.TotalGas())
		}
		gas.AddRow(row.DirectionName(), row.App, row.Move1Gas, row.Move2Gas, row.CompleteGas,
			fmt.Sprintf("%.0f%%", createShare*100),
			fmt.Sprintf("%.2f", float64(row.TotalGas())/1e6),
			fmt.Sprintf("%.2f", row.USD()))
	}
	out += gas.String()
	return out
}
