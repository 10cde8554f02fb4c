// Package core implements the Move protocol of the paper: proof
// construction for locked contracts (Move1 side), verification and state
// recreation (Move2 side, Alg. 1), replay protection (Fig. 2), and the
// light-client header store that gives every chain a trusted view of its
// peers' Merkle roots (§III-A, §IV-A).
package core

import (
	"errors"
	"fmt"

	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/trie"
	"scmove/internal/types"
)

// ChainParams are the per-chain parameters interoperating blockchains agree
// on up front (paper §IV-A): identifier, state tree kind, the confirmation
// depth p, and whether the chain publishes its state root with a one-block
// lag (Tendermint's app-hash rule, §VI).
type ChainParams struct {
	ID       hashing.ChainID
	TreeKind trie.Kind
	// ConfirmationDepth is p: the minimum number of blocks a header must be
	// behind the chain's head before peers accept it (6 for the PoW chain,
	// 2 for the BFT chain in the paper's deployment).
	ConfirmationDepth uint64
	// LaggingStateRoot marks chains whose header at height h+1 carries the
	// state root of height h.
	LaggingStateRoot bool
}

// Errors returned by the header store and move verification.
var (
	ErrUnknownChain   = errors.New("core: chain not configured for interoperability")
	ErrNoHeader       = errors.New("core: header not known to the light client")
	ErrNotConfirmed   = errors.New("core: header not yet p blocks deep")
	ErrBadProof       = errors.New("core: move proof verification failed")
	ErrNotLocked      = errors.New("core: contract is not locked on the source chain")
	ErrWrongTarget    = errors.New("core: contract is being moved to a different chain")
	ErrReplay         = errors.New("core: stale move nonce (replayed Move2)")
	ErrIncompleteCode = errors.New("core: code does not match the proven code hash")
	ErrIncompleteSet  = errors.New("core: storage payload does not rebuild the proven storage root")
	// ErrStaleBase refuses a delta Move2 whose base is not the target's copy
	// of the contract: the copy was pruned or replaced since the relayer
	// read it, or was never there. A full payload of the same proof does not
	// depend on the copy.
	ErrStaleBase = errors.New("core: move2 delta base is not the target's copy")
)

// HeaderStore is one chain's light-client view of its peers: block headers
// received from header relays, plus each peer's current head height. Nodes
// verify Merkle roots of other blockchains against this store (the VS
// predicate of Alg. 1).
type HeaderStore struct {
	params  map[hashing.ChainID]ChainParams
	headers map[hashing.ChainID]map[uint64]*types.Header
	heads   map[hashing.ChainID]uint64

	counters *metrics.Counters
}

// Observe mirrors rejected-header events ("byzantine.header.conflict") into
// the shared counter set.
func (s *HeaderStore) Observe(c *metrics.Counters) { s.counters = c }

func (s *HeaderStore) inc(name string) {
	if s.counters != nil {
		s.counters.Inc(name)
	}
}

// NewHeaderStore returns a store configured with the given peer parameters.
func NewHeaderStore(params ...ChainParams) *HeaderStore {
	s := &HeaderStore{
		params:  make(map[hashing.ChainID]ChainParams, len(params)),
		headers: make(map[hashing.ChainID]map[uint64]*types.Header, len(params)),
		heads:   make(map[hashing.ChainID]uint64, len(params)),
	}
	for _, p := range params {
		s.params[p.ID] = p
		s.headers[p.ID] = make(map[uint64]*types.Header)
	}
	return s
}

// Params returns the configured parameters of a peer chain.
func (s *HeaderStore) Params(chain hashing.ChainID) (ChainParams, error) {
	p, ok := s.params[chain]
	if !ok {
		return ChainParams{}, fmt.Errorf("%w: %s", ErrUnknownChain, chain)
	}
	return p, nil
}

// Update ingests relayed canonical headers of a peer chain together with
// the peer's current head height. Re-relayed heights overwrite previous
// entries, which is how shallow PoW reorgs are absorbed — depth checks at
// query time make only ≥p-deep headers trustworthy.
//
// Confirmed heights are immutable: once a height is ≥p deep (the depth at
// which TrustedStateRoot starts vouching for it), a conflicting header for
// it — a forged root from a Byzantine relayer, since honest reorgs never
// reach that deep — is recorded and ignored rather than overwriting the
// root peers may already have verified proofs against.
func (s *HeaderStore) Update(chain hashing.ChainID, headers []*types.Header, head uint64) error {
	p, ok := s.params[chain]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownChain, chain)
	}
	byHeight := s.headers[chain]
	for _, h := range headers {
		if h.ChainID != chain {
			return fmt.Errorf("%w: header from %s relayed as %s", ErrUnknownChain, h.ChainID, chain)
		}
		if prev, seen := byHeight[h.Height]; seen && *prev != *h {
			if confirmed := s.heads[chain] >= h.Height+p.ConfirmationDepth; confirmed {
				s.inc("byzantine.header.conflict")
				continue
			}
		}
		byHeight[h.Height] = h
	}
	if head > s.heads[chain] {
		s.heads[chain] = head
	}
	return nil
}

// Head returns the last known head height of a peer chain.
func (s *HeaderStore) Head(chain hashing.ChainID) uint64 { return s.heads[chain] }

// TrustedStateRoot implements VS: it returns the peer chain's state root
// for the given block height, provided the header carrying it is known and
// at least p blocks deep. For lagging chains the root of height h is read
// from header h+1 — the cause of the two-block Burrow wait (§VI).
func (s *HeaderStore) TrustedStateRoot(chain hashing.ChainID, height uint64) (hashing.Hash, error) {
	p, err := s.Params(chain)
	if err != nil {
		return hashing.Hash{}, err
	}
	h, rootHeight, confirmed := s.rootHeader(p, height)
	if h == nil {
		return hashing.Hash{}, fmt.Errorf("%w: %s height %d", ErrNoHeader, chain, rootHeight)
	}
	if !confirmed {
		// Update stores headers above the head it is given, so the header
		// may be above the head: it is then 0 deep.
		var depth uint64
		if head := s.heads[chain]; head > rootHeight {
			depth = head - rootHeight
		}
		return hashing.Hash{}, fmt.Errorf("%w: %s height %d is %d deep, need %d",
			ErrNotConfirmed, chain, rootHeight, depth, p.ConfirmationDepth)
	}
	return h.StateRoot, nil
}

// ConfirmedAt reports whether a proof against the given height would pass
// the depth check right now — the relayer uses this to time Move2
// submission, polling it through the p-block wait, so it decides without
// building TrustedStateRoot's error.
func (s *HeaderStore) ConfirmedAt(chain hashing.ChainID, height uint64) bool {
	p, ok := s.params[chain]
	if !ok {
		return false
	}
	h, _, confirmed := s.rootHeader(p, height)
	return h != nil && confirmed
}

// rootHeader is the depth check TrustedStateRoot and ConfirmedAt share. It
// returns the stored header carrying the state root of height (nil if there
// is none), that header's height — height+1 on a lagging chain — and
// whether the peer's known head is at least p blocks above it.
func (s *HeaderStore) rootHeader(p ChainParams, height uint64) (h *types.Header, rootHeight uint64, confirmed bool) {
	rootHeight = height
	if p.LaggingStateRoot {
		rootHeight = height + 1
	}
	confirmed = s.heads[p.ID] >= rootHeight+p.ConfirmationDepth
	return s.headers[p.ID][rootHeight], rootHeight, confirmed
}
