package contracts

import (
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/u256"
)

// WellKnown derives the fixed address where a shared contract (a token
// factory or game registry) is pre-deployed on *every* shard. Deploying the
// same code at the same address everywhere is what lets per-user contracts
// keep their CREATE2-derived identifiers as they migrate (§V-A).
func WellKnown(name string) hashing.Address {
	return hashing.AddressFromHash(hashing.SumTagged(0xA7, []byte(name)))
}

// GenesisSCoin installs an SCoin token factory directly into genesis state
// at the given address with the given owner and per-account grant. Sharded
// experiments call this on every shard with the same address.
func GenesisSCoin(db *state.DB, addr, owner hashing.Address, grant u256.Int) {
	db.CreateContract(addr, evm.NativeCode(SCoinName))
	db.SetStorage(addr, slotOwner, wordOfAddress(owner))
	db.SetStorage(addr, slotGrant, grant.Bytes32())
}

// GenesisKittyRegistry installs a ScalableKitties registry into genesis
// state at the given address.
func GenesisKittyRegistry(db *state.DB, addr, owner hashing.Address) {
	db.CreateContract(addr, evm.NativeCode(KittyRegistryName))
	db.SetStorage(addr, slotOwner, wordOfAddress(owner))
}
