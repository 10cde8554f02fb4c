// Package relay implements the client side of the Move protocol: a Client
// that signs and submits transactions over per-chain submission links (a
// simnet.Link: a delay plus any faults a chaos run injects), and a Mover
// that drives the full Move1 → proof → wait-p-blocks → Move2 sequence
// across two chains. One pure transition function, step, decides every
// stage (deadlines, backoff, the retry budget) from an in-memory journal
// entry; the Mover carries out its actions and records the per-phase
// timings and gas of the paper's IBC experiments (Figs. 8 and 9).
package relay

import (
	"errors"
	"time"

	"scmove/internal/chain"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/simnet"
	"scmove/internal/txpool"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// DefaultGasLimit is the per-transaction gas limit clients use; generous
// enough for every contract in the standard library, including Store
// deployments and moves with a thousand state variables (~20 Mgas of
// SSTOREs).
const DefaultGasLimit = 40_000_000

// DefaultGasPrice is 2 (interpreted as Gwei in the cost analysis, matching
// the paper's December-2019 conversion).
var DefaultGasPrice = u256.FromUint64(2)

// Client is one transaction-submitting principal: a key pair plus local
// per-chain nonce counters. A pool rejection rolls the burnt nonce back
// (or, when later nonces were already handed out, flags the chain for a
// resync against committed state) so retries never wedge behind a
// permanently missing nonce. Building a transaction cannot fail: the
// signature is produced on the shared crypto pool after the build returns.
type Client struct {
	kp       *keys.KeyPair
	nonces   map[hashing.ChainID]uint64
	desynced map[hashing.ChainID]bool
	links    map[hashing.ChainID]*simnet.Link
}

// NewClient returns a client that submits to each chain over that chain's
// link. The client only reads links, so clients may share one map.
func NewClient(kp *keys.KeyPair, links map[hashing.ChainID]*simnet.Link) *Client {
	return &Client{
		kp:       kp,
		nonces:   make(map[hashing.ChainID]uint64),
		desynced: make(map[hashing.ChainID]bool),
		links:    links,
	}
}

// Address returns the client's account address.
func (cl *Client) Address() hashing.Address { return cl.kp.Address() }

// nextNonce hands out the next nonce for a chain, resyncing from committed
// chain state first if a previous submission failure desynchronized the
// local counter. The resync is eventually consistent: it may briefly reuse
// a nonce still pending in the pool, in which case one of the two
// transactions fails its nonce check and the counter resyncs again.
func (cl *Client) nextNonce(c *chain.Chain) uint64 {
	id := c.ChainID()
	if cl.desynced[id] {
		cl.nonces[id] = c.StateDB().GetNonce(cl.kp.Address())
		cl.desynced[id] = false
	}
	n := cl.nonces[id]
	cl.nonces[id] = n + 1
	return n
}

// rollbackNonce returns a burnt nonce after a failed submission. If it is
// the most recently handed out nonce the counter simply steps back;
// otherwise later nonces are already in flight and the counter is flagged
// for a resync from chain state.
func (cl *Client) rollbackNonce(id hashing.ChainID, nonce uint64) {
	if cl.nonces[id] == nonce+1 {
		cl.nonces[id] = nonce
		return
	}
	cl.desynced[id] = true
}

// deliver hands a signed transaction to the chain over its submission
// link. Pool rejections roll the nonce back so a retry can reuse it;
// duplicate rejections are expected for idempotent resubmissions and leave
// the counter alone.
//
// A copy the link corrupts is a separate forged transaction, not this
// client's traffic failing: it goes through the chain's full untrusted
// ingest, and its rejection is silent and never rolls the nonce back.
// Whether a tamper breaks the framing (decode error) or only the signature
// (pool rejection) depends on the encoded signature lengths, which repeat
// for a seed since signing is RFC 6979; counting them would still move the
// byzantine counter tables. The link's own corrupted counter records the
// event.
//
// A deferred signature is not awaited here: admission trusts From, and the
// chain waits when a proposal selects the transaction. The submission delay
// is simulated time, which passes in microseconds of wall time, so the
// signature is often still queued at delivery; a wait here blocks
// kitties_replay's event loop 399–459 times per round, 0.40–0.60 s of a
// 1.43–2.02 s round (seed 1, 2-core host). The next proposal is up to 5 s
// of simulated time later, and by then the signature has usually landed.
func (cl *Client) deliver(c *chain.Chain, tx *types.Transaction) {
	cl.links[c.ChainID()].Deliver(func() {
		if err := c.SubmitTx(tx); err != nil && !errors.Is(err, txpool.ErrDuplicate) {
			cl.rollbackNonce(c.ChainID(), tx.Nonce)
		}
	}, tx.Encode, func(raw []byte) {
		if forged, err := types.DecodeTransaction(raw); err == nil {
			_ = c.SubmitTx(forged) // signature admission rejects it
		}
	})
}

// sign defers tx's ECDSA to the shared crypto pool. From and the id are
// fixed synchronously, so nothing the simulation orders on can change, while
// the signature overlaps with the event loop's work until a proposal selects
// the transaction and waits for it. A failure (which a valid key makes all
// but impossible) then drops the transaction from the pool at proposal
// time, and nothing rolls its nonce back.
func (cl *Client) sign(tx *types.Transaction) *types.Transaction {
	tx.SignOn(cl.kp, keys.SharedPool())
	return tx
}

// SubmitSigned re-delivers an already-signed transaction over the
// submission path. Resubmission is idempotent: the pool deduplicates by
// transaction id while the first copy is pending, and stale nonces are
// dropped at proposal time, so a transaction that already committed can
// never re-execute.
func (cl *Client) SubmitSigned(c *chain.Chain, tx *types.Transaction) hashing.Hash {
	cl.deliver(c, tx)
	return tx.ID()
}

// SignedCall builds and signs a call transaction, consuming a nonce,
// without submitting it. Movers use it to keep the signed bytes for
// idempotent resubmission.
func (cl *Client) SignedCall(c *chain.Chain, to hashing.Address, data []byte, value u256.Int) *types.Transaction {
	return cl.sign(&types.Transaction{
		ChainID:  c.ChainID(),
		Nonce:    cl.nextNonce(c),
		Kind:     types.TxCall,
		To:       to,
		Value:    value,
		GasLimit: DefaultGasLimit,
		GasPrice: DefaultGasPrice,
		Data:     data,
	})
}

// SignedMove2 builds and signs a Move2 transaction carrying the given proof
// payload without submitting it.
func (cl *Client) SignedMove2(c *chain.Chain, payload *types.Move2Payload) *types.Transaction {
	return cl.sign(&types.Transaction{
		ChainID:  c.ChainID(),
		Nonce:    cl.nextNonce(c),
		Kind:     types.TxMove2,
		GasLimit: DefaultGasLimit,
		GasPrice: DefaultGasPrice,
		Move2:    payload,
	})
}

// SignedCreate builds and signs a deployment transaction, consuming a
// nonce, without submitting it — for idempotent resubmission by retrying
// harnesses.
func (cl *Client) SignedCreate(c *chain.Chain, code []byte, value u256.Int) *types.Transaction {
	return cl.sign(&types.Transaction{
		ChainID:  c.ChainID(),
		Nonce:    cl.nextNonce(c),
		Kind:     types.TxCreate,
		Value:    value,
		GasLimit: DefaultGasLimit,
		GasPrice: DefaultGasPrice,
		Data:     code,
	})
}

// Call submits a contract call (or plain transfer) and returns the tx id.
func (cl *Client) Call(c *chain.Chain, to hashing.Address, data []byte, value u256.Int) hashing.Hash {
	return cl.SubmitSigned(c, cl.SignedCall(c, to, data, value))
}

// Create submits a contract deployment and returns the tx id.
func (cl *Client) Create(c *chain.Chain, code []byte, value u256.Int) hashing.Hash {
	return cl.SubmitSigned(c, cl.SignedCreate(c, code, value))
}

// Locate finds the chain a contract currently lives on by following the
// location field Lc (§III-G(b)): any chain that has ever hosted the
// contract keeps a tombstone whose Lc names its current home, so a client
// that does not know where a contract is can chase the pointers. Returns
// false if no queried chain knows the contract.
func Locate(chains []*chain.Chain, contract hashing.Address) (hashing.ChainID, bool) {
	byID := make(map[hashing.ChainID]*chain.Chain, len(chains))
	for _, c := range chains {
		byID[c.ChainID()] = c
	}
	for _, c := range chains {
		if !c.StateDB().Exists(contract) {
			continue
		}
		// Follow Lc pointers until they fixpoint (bounded by the chain
		// count: each hop lands on a chain that hosted the contract later).
		cur := c
		for hops := 0; hops <= len(chains); hops++ {
			loc := cur.StateDB().GetLocation(contract)
			if loc == cur.ChainID() {
				return loc, true
			}
			next, ok := byID[loc]
			if !ok {
				// The contract moved to a chain we cannot query; report the
				// pointer anyway.
				return loc, true
			}
			cur = next
		}
		return cur.ChainID(), true
	}
	return 0, false
}

// MoveResult reports a completed (or failed) contract move with the
// per-phase breakdown of Fig. 8 and the gas split of Fig. 9.
type MoveResult struct {
	Contract hashing.Address
	Err      error

	Move1Tx hashing.Hash
	Move2Tx hashing.Hash

	// Phase boundaries (simulated time): start → Move1 included →
	// proof confirmed p-deep → Move2 included → follow-ups complete.
	StartedAt    time.Duration
	Move1At      time.Duration
	ProofReadyAt time.Duration
	Move2At      time.Duration

	Move1Gas uint64
	Move2Gas uint64
}

// Move1Latency is the time to include the lock transaction.
func (r *MoveResult) Move1Latency() time.Duration { return r.Move1At - r.StartedAt }

// WaitProofLatency is the p-block wait plus proof acquisition.
func (r *MoveResult) WaitProofLatency() time.Duration { return r.ProofReadyAt - r.Move1At }

// Move2Latency is the time to include the recreation transaction.
func (r *MoveResult) Move2Latency() time.Duration { return r.Move2At - r.ProofReadyAt }

// Total is the end-to-end move latency.
func (r *MoveResult) Total() time.Duration { return r.Move2At - r.StartedAt }
