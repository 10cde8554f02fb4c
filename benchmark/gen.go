package main

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/rpc"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// Every input the programs under test receive is built here from the seed;
// the workloads hand over only what these generators return.

// subSeed derives an independent stream for one generator, so adding a
// generator never shifts the others' inputs.
func subSeed(seed int64, stream string) int64 {
	h := hashing.Sum([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	return int64(binary.BigEndian.Uint64(h[:8]) >> 1)
}

// rpcSink receives every transfer; its balance on a chain is that chain's
// committed transfer count.
var rpcSink = hashing.AddressFromBytes([]byte("benchmark-sink"))

// rpcTable is a genesis contract holding rpcTableSlots known storage words,
// the target of the slot queries.
var rpcTable = hashing.AddressFromBytes([]byte("benchmark-table"))

const (
	rpcTableSlots = 64
	rpcUserFunds  = uint64(1) << 40
)

func rpcTableKey(i int) evm.Word {
	var w evm.Word
	w[0] = 0x51
	binary.BigEndian.PutUint64(w[24:], uint64(i))
	return w
}

func rpcTableValue(i int) evm.Word {
	k := rpcTableKey(i)
	return evm.Word(hashing.Sum(k[:]))
}

// rpcUserKey derives the i-th load user's key pair (clear of the universe's
// client and user key ranges).
func rpcUserKey(i int) *keys.KeyPair { return keys.Deterministic(uint64(700_000 + i)) }

// opKind is one kind of front-door request.
type opKind uint8

const (
	opSubmit opKind = iota
	opQueryAccount
	opQuerySlot
	opQueryHistorical
)

// rpcOp is one scheduled request of the open loop.
type rpcOp struct {
	due  time.Duration // offset from the start of the measured phase
	kind opKind
	user int    // submit: the sender (its next nonce); queries: the account read
	slot int    // opQuerySlot: index into the genesis table
	back uint64 // opQueryHistorical: how many blocks behind the head
}

// rpcInputs is everything a front-door workload sends.
type rpcInputs struct {
	chainOf []hashing.ChainID      // user -> chain
	txs     [][]*types.Transaction // user -> dense nonce sequence of unit transfers
	bodies  [][][]byte             // user -> pre-encoded submit request bodies
	// order is, per worker, the users it serves in the order the closed loop
	// visits them.
	order [][]int
	// ops is, per worker, the open loop's schedule in due order.
	ops [][]rpcOp
}

// assignUsers spreads users over chains evenly, in a seeded order, and over
// workers so that a user (one nonce sequence) is always sent by one worker.
func assignUsers(seed int64, users int, chains []hashing.ChainID, workers int) (chainOf []hashing.ChainID, order [][]int) {
	rng := rand.New(rand.NewSource(subSeed(seed, "users")))
	perm := rng.Perm(users)
	chainOf = make([]hashing.ChainID, users)
	order = make([][]int, workers)
	for pos, u := range perm {
		c := pos % len(chains)
		chainOf[u] = chains[c]
		// Worker w serves the chains congruent to w: with as many workers as
		// chains each worker holds exactly one connection.
		w := c % workers
		if workers > len(chains) {
			w = (c + len(chains)*(pos/len(chains))) % workers
		}
		order[w] = append(order[w], u)
	}
	return chainOf, order
}

// unitTransfer is the one transaction shape of the front-door workloads and
// the layer probes: one unit of value to the sink at zero gas price.
func unitTransfer(chainID hashing.ChainID, nonce uint64) *types.Transaction {
	return &types.Transaction{
		ChainID:  chainID,
		Nonce:    nonce,
		Kind:     types.TxCall,
		To:       rpcSink,
		Value:    u256.FromUint64(1),
		GasLimit: 100_000,
		GasPrice: u256.Zero(),
	}
}

// signTransfers builds and signs count unit transfers per user on the
// shared crypto pool, and pre-encodes their submit bodies so the measured
// phase spends the client's time on the wire, not on hex and JSON.
func signTransfers(in *rpcInputs, perUser []int) error {
	users := len(in.chainOf)
	in.txs = make([][]*types.Transaction, users)
	in.bodies = make([][][]byte, users)
	for u := 0; u < users; u++ {
		kp := rpcUserKey(u)
		in.txs[u] = make([]*types.Transaction, perUser[u])
		for n := range in.txs[u] {
			tx := unitTransfer(in.chainOf[u], uint64(n))
			tx.SignOn(kp, keys.SharedPool())
			in.txs[u][n] = tx
		}
	}
	for u := range in.txs {
		in.bodies[u] = make([][]byte, len(in.txs[u]))
		for n, tx := range in.txs[u] {
			if err := tx.WaitSig(); err != nil {
				return fmt.Errorf("sign user %d nonce %d: %w", u, n, err)
			}
			body, err := json.Marshal(&rpc.Request{Method: "submit", Tx: hex.EncodeToString(tx.Encode())})
			if err != nil {
				return err
			}
			in.bodies[u][n] = body
		}
	}
	return nil
}

// genClosedLoop builds the saturation workload: every user gets the same
// share of total transfers; each worker visits its users round-robin.
func genClosedLoop(seed int64, users int, chains []hashing.ChainID, workers, total int) (*rpcInputs, error) {
	in := &rpcInputs{}
	in.chainOf, in.order = assignUsers(seed, users, chains, workers)
	perUser := make([]int, users)
	for u := range perUser {
		perUser[u] = total / users
	}
	return in, signTransfers(in, perUser)
}

// genOpenLoop builds the mixed workload: submits and queries on two fixed
// rates for the given span, dealt to the workers in turn. Which user sends,
// which account or slot is read and how far behind the head a historical
// read looks all come from the seed; a tenth of the queries are historical.
func genOpenLoop(seed int64, users int, chains []hashing.ChainID, workers int,
	submitRate, queryRate float64, span time.Duration) (*rpcInputs, error) {
	in := &rpcInputs{}
	in.chainOf, in.order = assignUsers(seed, users, chains, workers)
	rng := rand.New(rand.NewSource(subSeed(seed, "schedule")))
	in.ops = make([][]rpcOp, workers)
	perUser := make([]int, users)

	submits := int(submitRate * span.Seconds())
	queries := int(queryRate * span.Seconds())
	// Merge the two fixed-rate streams in due order.
	si, qi := 0, 0
	for n := 0; si < submits || qi < queries; n++ {
		sDue := time.Duration(float64(si) / submitRate * float64(time.Second))
		qDue := time.Duration((float64(qi) + 0.5) / queryRate * float64(time.Second))
		w := n % workers
		if len(in.order[w]) == 0 {
			return nil, fmt.Errorf("worker %d has no users (users=%d workers=%d)", w, users, workers)
		}
		user := in.order[w][rng.Intn(len(in.order[w]))]
		if si < submits && (qi >= queries || sDue <= qDue) {
			in.ops[w] = append(in.ops[w], rpcOp{due: sDue, kind: opSubmit, user: user})
			perUser[user]++
			si++
			continue
		}
		op := rpcOp{due: qDue, user: user}
		switch r := rng.Intn(10); {
		case r == 0:
			op.kind, op.back = opQueryHistorical, uint64(1+rng.Intn(4))
		case r < 5:
			op.kind, op.slot = opQuerySlot, rng.Intn(rpcTableSlots)
		default:
			op.kind = opQueryAccount
		}
		in.ops[w] = append(in.ops[w], op)
		qi++
	}
	return in, signTransfers(in, perUser)
}

// moveOrder is the seeded order in which move_store ping-pongs its
// contracts: seeded permutations of the population, one after the other, n
// indices in all. Every contract is moved equally often whatever the seed,
// so the work of a phase does not depend on the draw, only its order does.
func moveOrder(seed int64, population, n int) []int {
	rng := rand.New(rand.NewSource(subSeed(seed, "moves")))
	out := make([]int, 0, n+population)
	for len(out) < n {
		out = append(out, rng.Perm(population)...)
	}
	return out[:n]
}
