package universe

import (
	"testing"
	"time"

	"scmove/internal/lang"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// TestMiniSolContractMovesAcrossChains deploys a compiled MiniSol contract
// (bytecode, not a native Go contract) on the Ethereum-like chain and moves
// it to the Burrow-like chain under full consensus timing: the language,
// the OP_MOVE lowering, the dispatcher's protocol-encoding support, and the
// proof machinery all compose.
func TestMiniSolContractMovesAcrossChains(t *testing.T) {
	code := lang.MustCompile(`
contract Ledger {
    storage owner: address
    storage entries: map
    storage movedAt: uint

    func init() {
        require(owner == 0)
        owner = sender
    }
    func record(key: uint, val: uint) {
        require(sender == owner)
        entries[key] = val
        emit Recorded(key)
    }
    func lookup(key: uint) returns uint {
        return entries[key]
    }
    func moveTo(target: uint) {
        require(owner == sender)
        move(target)
    }
    func moveFinish() {
        movedAt = now
    }
}
`)
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	eth, bur := u.Chain(1), u.Chain(2)

	// Deploy the raw bytecode via a plain create transaction.
	txid := cl.Create(eth, code, u256.Zero())
	rec, err := u.WaitTx(eth, txid, 3*time.Minute)
	if err != nil || !rec.Succeeded() {
		t.Fatalf("deploy: %v %+v", err, rec)
	}
	ledger := rec.Created

	// Initialize and record a few entries.
	mustCall := func(data []byte) *types.Receipt {
		t.Helper()
		r, err := u.MustCall(cl, eth, ledger, data, u256.Zero(), 3*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mustCall(lang.EncodeCall("init"))
	mustCall(lang.EncodeCall("record", u256.FromUint64(1), u256.FromUint64(111)))
	recEvent := mustCall(lang.EncodeCall("record", u256.FromUint64(2), u256.FromUint64(222)))
	foundEvent := false
	for _, log := range recEvent.Logs {
		if len(log.Topics) == 1 && log.Topics[0] == lang.TopicOf("Recorded") {
			foundEvent = true
		}
	}
	if !foundEvent {
		t.Fatal("Recorded event missing")
	}

	// Move the compiled contract to the Burrow-like chain. The Mover uses
	// the protocol-level moveTo encoding, which the compiled dispatcher
	// recognizes by its length.
	res, err := u.MoveAndWait(cl, 1, 2, ledger, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Move2Gas == 0 {
		t.Fatal("move2 gas must be recorded")
	}

	// The map entries survived; moveFinish stamped movedAt; the contract
	// answers on the target chain and is writable there.
	for key, want := range map[uint64]uint64{1: 111, 2: 222, 3: 0} {
		ret, err := bur.StaticCall(cl.Address(), ledger, lang.EncodeCall("lookup", u256.FromUint64(key)))
		if err != nil {
			t.Fatal(err)
		}
		if !u256.FromBytes(ret).Eq(u256.FromUint64(want)) {
			t.Fatalf("lookup(%d) = %x, want %d", key, ret, want)
		}
	}
	if _, err := u.MustCall(cl, bur, ledger,
		lang.EncodeCall("record", u256.FromUint64(3), u256.FromUint64(333)), u256.Zero(), time.Minute); err != nil {
		t.Fatal(err)
	}
	// The source copy is locked.
	if _, err := u.MustCall(cl, eth, ledger,
		lang.EncodeCall("record", u256.FromUint64(9), u256.FromUint64(9)), u256.Zero(), 3*time.Minute); err == nil {
		t.Fatal("writes on the locked source copy must fail")
	}
}
