package contracts

import (
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// NewRegistryWithResidency returns a registry whose movable contracts
// enforce the given minimum residency in seconds (Listing 1's "3 days"
// guard) before they may move again.
func NewRegistryWithResidency(seconds uint64) *evm.Registry {
	return evm.MustNewRegistry(
		SCoin{},
		SAccount{Residency: seconds},
		Store{Residency: seconds},
		KittyRegistry{},
		Kitty{Residency: seconds},
		TokenRelay{},
		PeggedToken{},
		Swap{},
	)
}

// SCoinConstructorArgs builds OnCreate args: the token owner and the grant
// of tokens credited to each newly created account (the experiment faucet).
func SCoinConstructorArgs(owner hashing.Address, grant u256.Int) []byte {
	return EncodeCall("init", ArgAddress(owner), ArgU256(grant))
}

// KittyRegistryConstructorArgs builds OnCreate args.
func KittyRegistryConstructorArgs(owner hashing.Address) []byte {
	return EncodeCall("init", ArgAddress(owner))
}
