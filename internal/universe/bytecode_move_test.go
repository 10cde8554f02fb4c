package universe

import (
	"fmt"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/evm"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// recordedTopic is the LOG1 topic ledgerCode emits on every record.
var recordedTopic = hashing.Sum([]byte("Recorded"))

// ledgerCode is a movable bytecode contract with a map in storage: owner
// at slot 0, movedAt at slot 1, entries[key] at SHA3(key ‖ 2). Its
// dispatcher branches on CALLDATASIZE:
//
//	0   init: owner = caller, once
//	15  core.MoveFinishInput: movedAt = TIMESTAMP
//	19  core.MoveToInput: the owner moves it to the trailing 8-byte chain id
//	32  lookup(key): returns entries[key]
//	64  record(key, val): the owner sets entries[key] = val, LOG1 Recorded
//
// and accepts any other calldata as a plain transfer.
func ledgerCode() []byte {
	return asm.MustAssemble(fmt.Sprintf(`
		CALLDATASIZE PUSH1 15 EQ PUSH @movefinish JUMPI
		CALLDATASIZE PUSH1 19 EQ PUSH @moveto JUMPI
		CALLDATASIZE PUSH1 32 EQ PUSH @lookup JUMPI
		CALLDATASIZE PUSH1 64 EQ PUSH @record JUMPI
		CALLDATASIZE ISZERO PUSH @init JUMPI
		STOP
	@init:
		JUMPDEST
		PUSH1 0 SLOAD PUSH @revert JUMPI
		CALLER PUSH1 0 SSTORE
		STOP
	@movefinish:
		JUMPDEST
		TIMESTAMP PUSH1 1 SSTORE
		STOP
	@moveto:
		JUMPDEST
		CALLER PUSH1 0 SLOAD EQ ISZERO PUSH @revert JUMPI
		PUSH1 0 CALLDATALOAD PUSH1 104 SHR PUSH8 0xFFFFFFFFFFFFFFFF AND
		MOVE
		STOP
	@lookup:
		JUMPDEST
		PUSH1 0 CALLDATALOAD PUSH1 0 MSTORE PUSH1 2 PUSH1 32 MSTORE
		PUSH1 64 PUSH1 0 SHA3 SLOAD
		PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN
	@record:
		JUMPDEST
		CALLER PUSH1 0 SLOAD EQ ISZERO PUSH @revert JUMPI
		PUSH1 32 CALLDATALOAD
		PUSH1 0 CALLDATALOAD PUSH1 0 MSTORE PUSH1 2 PUSH1 32 MSTORE
		PUSH1 64 PUSH1 0 SHA3 SSTORE
		PUSH32 %s PUSH1 32 PUSH1 0 LOG1
		STOP
	@revert:
		JUMPDEST
		PUSH1 0 PUSH1 0 REVERT
	`, recordedTopic.Hex()))
}

// ledgerArgs encodes lookup(key) or record(key, val) calldata: each
// argument as one 32-byte word.
func ledgerArgs(args ...uint64) []byte {
	var out []byte
	for _, a := range args {
		w := u256.FromUint64(a).Bytes32()
		out = append(out, w[:]...)
	}
	return out
}

// TestBytecodeContractMovesAcrossChains deploys ledgerCode (bytecode, not a
// native Go contract) on the Ethereum-like chain and moves it to the
// Burrow-like chain under full consensus timing: the dispatcher's handling
// of the protocol's moveTo and moveFinish calldata, OP_MOVE, and the proof
// of a map's hashed slots all compose.
func TestBytecodeContractMovesAcrossChains(t *testing.T) {
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	eth, bur := u.Chain(1), u.Chain(2)

	// Deploy the raw bytecode via a plain create transaction.
	txid := cl.Create(eth, ledgerCode(), u256.Zero())
	rec, err := u.WaitTx(eth, txid, 3*time.Minute)
	if err != nil || !rec.Succeeded() {
		t.Fatalf("deploy: %v %+v", err, rec)
	}
	ledger := rec.Created
	movedAtSlot := evm.Word{31: 1}
	movedAt := func(c *chain.Chain) u256.Int {
		t.Helper()
		q, err := c.Query(ledger, &movedAtSlot, nil)
		if err != nil {
			t.Fatal(err)
		}
		return u256.FromBytes(q.Value[:])
	}

	// Initialize and record a few entries.
	mustCall := func(data []byte) *types.Receipt {
		t.Helper()
		r, err := u.MustCall(cl, eth, ledger, data, u256.Zero(), 3*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mustCall(nil)
	mustCall(ledgerArgs(1, 111))
	recEvent := mustCall(ledgerArgs(2, 222))
	foundEvent := false
	for _, log := range recEvent.Logs {
		if len(log.Topics) == 1 && log.Topics[0] == recordedTopic {
			foundEvent = true
		}
	}
	if !foundEvent {
		t.Fatal("Recorded event missing")
	}
	if got := movedAt(eth); !got.IsZero() {
		t.Fatalf("movedAt = %s before the Move, want 0", got)
	}

	// Move the contract to the Burrow-like chain. The Mover sends the
	// protocol-level moveTo calldata, which the dispatcher recognizes by
	// its length.
	res, err := u.MoveAndWait(cl, 1, 2, ledger, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Move2Gas == 0 {
		t.Fatal("move2 gas must be recorded")
	}

	// moveFinish stamped movedAt; the map entries survived; the contract
	// answers on the target chain and is writable there.
	if movedAt(bur).IsZero() {
		t.Fatal("moveFinish did not stamp movedAt on the target")
	}
	for key, want := range map[uint64]uint64{1: 111, 2: 222, 3: 0} {
		ret, err := bur.StaticCall(cl.Address(), ledger, ledgerArgs(key))
		if err != nil {
			t.Fatal(err)
		}
		if !u256.FromBytes(ret).Eq(u256.FromUint64(want)) {
			t.Fatalf("lookup(%d) = %x, want %d", key, ret, want)
		}
	}
	if _, err := u.MustCall(cl, bur, ledger, ledgerArgs(3, 333), u256.Zero(), time.Minute); err != nil {
		t.Fatal(err)
	}
	// The source copy is locked.
	if _, err := u.MustCall(cl, eth, ledger, ledgerArgs(9, 9), u256.Zero(), 3*time.Minute); err == nil {
		t.Fatal("writes on the locked source copy must fail")
	}
}
