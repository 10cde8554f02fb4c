package contracts

import "scmove/internal/evm"

// NewRegistry returns the standard library registry deployed on every chain
// in the experiments: the token (SCoin/SAccount), ScalableKitties, Store-N,
// and the currency relay.
func NewRegistry() *evm.Registry {
	return evm.MustNewRegistry(
		SCoin{},
		SAccount{},
		Store{},
		KittyRegistry{},
		Kitty{},
		TokenRelay{},
		PeggedToken{},
		Swap{},
	)
}
