// Package pow implements the proof-of-work substrate of the Ethereum-like
// chain: exponentially distributed block discovery (15 s mean in the
// paper's configuration, §VI), a header tree with heaviest-chain fork
// choice, and confirmation-depth queries — the reason interoperating
// chains configure the parameter p of §IV-A.
//
// Mining is simulated: instead of hashing, the time until the next block is
// drawn from the exponential distribution that real PoW difficulty targets
// induce. Fork choice and reorgs are real.
package pow

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// Errors returned by the header chain.
var (
	ErrUnknownParent = errors.New("pow: unknown parent header")
	ErrDuplicate     = errors.New("pow: duplicate header")
	ErrBadHeight     = errors.New("pow: height does not extend parent")
	ErrBadDifficulty = errors.New("pow: invalid difficulty")
	ErrWrongChain    = errors.New("pow: header belongs to another chain")
	ErrBadTime       = errors.New("pow: header time before parent")
)

// HeaderChain is a block-header tree with heaviest-chain (total difficulty)
// fork choice.
type HeaderChain struct {
	headers map[hashing.Hash]*types.Header
	parent  map[hashing.Hash]hashing.Hash
	total   map[hashing.Hash]*u256.Int

	genesis hashing.Hash
	head    hashing.Hash
}

// NewHeaderChain starts a chain from the given genesis header.
func NewHeaderChain(genesis *types.Header) *HeaderChain {
	gh := genesis.Hash()
	td := genesis.Difficulty
	return &HeaderChain{
		headers: map[hashing.Hash]*types.Header{gh: genesis},
		parent:  map[hashing.Hash]hashing.Hash{},
		total:   map[hashing.Hash]*u256.Int{gh: &td},
		genesis: gh,
		head:    gh,
	}
}

// Add inserts a header. It returns whether the canonical head changed to a
// different branch (a reorg; simply extending the head is not a reorg).
//
// Headers are untrusted input (a relayer or peer controls them): besides
// the structural parent/height checks, Add rejects wrong-chain headers,
// zero difficulty (a corrupted difficulty word would otherwise poison the
// total-difficulty fork choice), and time regressions against the parent.
func (c *HeaderChain) Add(h *types.Header) (reorg bool, err error) {
	hh := h.Hash()
	if _, dup := c.headers[hh]; dup {
		return false, ErrDuplicate
	}
	parent, ok := c.headers[h.ParentHash]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownParent, h.ParentHash)
	}
	if h.ChainID != parent.ChainID {
		return false, fmt.Errorf("%w: %s extends %s", ErrWrongChain, h.ChainID, parent.ChainID)
	}
	if h.Height != parent.Height+1 {
		return false, fmt.Errorf("%w: %d after %d", ErrBadHeight, h.Height, parent.Height)
	}
	if h.Difficulty.IsZero() {
		return false, fmt.Errorf("%w: zero difficulty at height %d", ErrBadDifficulty, h.Height)
	}
	if h.Time < parent.Time {
		return false, fmt.Errorf("%w: %d before parent %d", ErrBadTime, h.Time, parent.Time)
	}
	oldHead := c.head
	c.headers[hh] = h
	c.parent[hh] = h.ParentHash
	td := c.total[h.ParentHash].Add(h.Difficulty)
	c.total[hh] = &td

	// Heaviest chain wins; first-seen wins ties (as in Ethereum clients).
	if td.Gt(*c.total[c.head]) {
		c.head = hh
		return h.ParentHash != oldHead, nil
	}
	return false, nil
}

// Head returns the canonical head header.
func (c *HeaderChain) Head() *types.Header { return c.headers[c.head] }

// Get returns a header by hash.
func (c *HeaderChain) Get(h hashing.Hash) (*types.Header, bool) {
	header, ok := c.headers[h]
	return header, ok
}

// CanonicalAt returns the canonical header at the given height.
func (c *HeaderChain) CanonicalAt(height uint64) (*types.Header, bool) {
	cur := c.head
	for {
		h := c.headers[cur]
		if h.Height == height {
			return h, true
		}
		if h.Height < height || cur == c.genesis {
			return nil, false
		}
		cur = c.parent[cur]
	}
}

// Confirmations returns how many blocks deep a header is below the head
// (0 for the head itself), or false if the header is not canonical.
func (c *HeaderChain) Confirmations(h hashing.Hash) (uint64, bool) {
	header, ok := c.headers[h]
	if !ok {
		return 0, false
	}
	canon, ok := c.CanonicalAt(header.Height)
	if !ok || canon.Hash() != h {
		return 0, false
	}
	return c.Head().Height - header.Height, true
}

// Len returns the number of known headers (including the genesis).
func (c *HeaderChain) Len() int { return len(c.headers) }

// Timer draws block discovery intervals from the exponential distribution
// with the configured mean, seeded for reproducibility.
type Timer struct {
	rng  *rand.Rand
	mean time.Duration
}

// NewTimer returns a timer with the given mean block interval.
func NewTimer(seed int64, mean time.Duration) *Timer {
	return &Timer{rng: rand.New(rand.NewSource(seed)), mean: mean}
}

// Next returns the time until the next block is found. Samples are clamped
// to [1%, 10×] of the mean to keep simulations responsive under extreme
// draws.
func (t *Timer) Next() time.Duration {
	d := time.Duration(t.rng.ExpFloat64() * float64(t.mean))
	min := t.mean / 100
	max := 10 * t.mean
	return time.Duration(math.Min(math.Max(float64(d), float64(min)), float64(max)))
}

// Mean returns the configured mean interval.
func (t *Timer) Mean() time.Duration { return t.mean }
