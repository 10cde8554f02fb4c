package evm_test

import (
	"errors"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

func TestDelegateCallRunsInCallerContext(t *testing.T) {
	e := newEnv(t, nil)
	// Library code writes 0x77 to slot 5 of *its caller's* storage and
	// exposes the original msg.sender via CALLER.
	library := addr(0xD1)
	e.db.CreateContract(library, asm.MustAssemble(`
		PUSH1 0x77
		PUSH1 5
		SSTORE
		CALLER
		PUSH1 0
		MSTORE
		PUSH1 32
		PUSH1 0
		RETURN
	`))
	// The proxy delegatecalls the library and returns its output.
	e.deploy(asm.MustAssemble(`
		PUSH1 32    ; outSize
		PUSH1 0     ; outOff
		PUSH1 0     ; inSize
		PUSH1 0     ; inOff
		PUSH20 0xd100000000000000000000000000000000000000
		PUSH3 0x0186a0
		DELEGATECALL
		POP
		PUSH1 32
		PUSH1 0
		RETURN
	`))
	ret, _ := e.call(t, nil)
	// Storage landed in the proxy, not the library.
	if got := e.db.GetStorage(contract, word(5)); got != word(0x77) {
		t.Fatalf("proxy slot5 = %x", got)
	}
	if got := e.db.GetStorage(library, word(5)); got != (evm.Word{}) {
		t.Fatal("library storage must stay untouched")
	}
	// CALLER inside the delegatecall is the original EOA.
	if got := hashing.AddressFromBytes(ret); got != origin {
		t.Fatalf("delegated CALLER = %s, want %s", got, origin)
	}
}

func TestExtCodeCopyAndHash(t *testing.T) {
	e := newEnv(t, nil)
	target := addr(0xD2)
	targetCode := asm.MustAssemble("PUSH1 1 PUSH1 2 ADD STOP")
	e.db.CreateContract(target, targetCode)
	// Copy the first 32 bytes of the target's code into memory and return.
	e.deploy(asm.MustAssemble(`
		PUSH1 32
		PUSH1 0
		PUSH1 0
		PUSH20 0xd200000000000000000000000000000000000000
		EXTCODECOPY
		PUSH1 32
		PUSH1 0
		RETURN
	`))
	ret, _ := e.call(t, nil)
	for i, b := range targetCode {
		if ret[i] != b {
			t.Fatalf("EXTCODECOPY byte %d = %x, want %x", i, ret[i], b)
		}
	}
	// And EXTCODEHASH matches the content-addressed code store.
	e.db.CreateContract(addr(0xD3), asm.MustAssemble(`
		PUSH20 0xd200000000000000000000000000000000000000
		EXTCODEHASH
		PUSH1 0
		MSTORE
		PUSH1 32
		PUSH1 0
		RETURN
	`))
	ret2, _, err := e.evm.Call(origin, addr(0xD3), nil, u256.Zero(), testGas)
	if err != nil {
		t.Fatal(err)
	}
	if hashing.HashFromBytes(ret2) != hashing.Sum(targetCode) {
		t.Fatal("EXTCODEHASH mismatch")
	}
}

func TestMemoryExpansionBounded(t *testing.T) {
	e := newEnv(t, nil)
	// MSTORE at a gigantic offset: the memory guard (or quadratic gas) must
	// stop it without allocating.
	e.deploy(asm.MustAssemble(`
		PUSH1 1
		PUSH32 0x0000000000000000000000000000000000000000000000000000001000000000
		MSTORE
		STOP
	`))
	_, _, err := e.evm.Call(origin, contract, nil, u256.Zero(), testGas)
	if err == nil {
		t.Fatal("huge memory expansion must fail")
	}
	if !errors.Is(err, evm.ErrMemoryLimit) && !errors.Is(err, evm.ErrOutOfGas) {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestValueCallStipend(t *testing.T) {
	e := newEnv(t, nil)
	// The callee only STOPs; a value-bearing call must succeed even when the
	// caller forwards zero gas, thanks to the stipend.
	callee := addr(0xD4)
	e.db.CreateContract(callee, []byte{byte(evm.STOP)})
	e.db.AddBalance(contract, u256.FromUint64(100))
	e.deploy(asm.MustAssemble(`
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 5      ; value
		PUSH20 0xd400000000000000000000000000000000000000
		PUSH1 0      ; gas: rely on the stipend
		CALL
		PUSH1 0
		SSTORE
		STOP
	`))
	e.call(t, nil)
	if got := e.db.GetStorage(contract, word(0)); got != word(1) {
		t.Fatalf("stipend call success flag = %x", got)
	}
	if got := e.db.GetBalance(callee); !got.Eq(u256.FromUint64(5)) {
		t.Fatalf("callee balance = %s", got)
	}
}

func TestStaticcallValueTransferBlocked(t *testing.T) {
	e := newEnv(t, nil)
	inner := addr(0xD5)
	e.db.CreateContract(inner, asm.MustAssemble(`
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 1      ; value transfer inside a static context
		PUSH20 0xd600000000000000000000000000000000000000
		GAS
		CALL
		PUSH1 0
		MSTORE
		PUSH1 32
		PUSH1 0
		RETURN
	`))
	e.db.AddBalance(inner, u256.FromUint64(10))
	e.deploy(asm.MustAssemble(`
		PUSH1 32
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH20 0xd500000000000000000000000000000000000000
		GAS
		STATICCALL
		POP
		PUSH1 32
		PUSH1 0
		RETURN
	`))
	ret, _ := e.call(t, nil)
	// The outer STATICCALL survives, but the inner value transfer failed:
	// the inner frame aborted, so its return data is empty (all zeros).
	if !u256.FromBytes(ret).IsZero() {
		t.Fatalf("inner value transfer must abort, got %x", ret)
	}
	if got := e.db.GetBalance(addr(0xD6)); !got.IsZero() {
		t.Fatal("no value may move inside a static context")
	}
}

func TestReturnDataCopyOutOfBounds(t *testing.T) {
	e := newEnv(t, nil)
	callee := addr(0xD7)
	e.db.CreateContract(callee, asm.MustAssemble(`
		PUSH1 32
		PUSH1 0
		RETURN
	`))
	// Ask RETURNDATACOPY for more bytes than returned: frame must abort.
	e.deploy(asm.MustAssemble(`
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH20 0xd700000000000000000000000000000000000000
		GAS
		CALL
		POP
		PUSH1 64     ; size > returndatasize
		PUSH1 0
		PUSH1 0
		RETURNDATACOPY
		STOP
	`))
	_, _, err := e.evm.Call(origin, contract, nil, u256.Zero(), testGas)
	if !errors.Is(err, evm.ErrReturnDataOOB) {
		t.Fatalf("want ErrReturnDataOOB, got %v", err)
	}
}

func TestGasMeterRefundAccounting(t *testing.T) {
	m := evm.NewGasMeter(1000)
	if err := m.Consume(400); err != nil {
		t.Fatal(err)
	}
	if m.Remaining() != 600 {
		t.Fatalf("remaining %d", m.Remaining())
	}
	m.Refund(100)
	if m.Remaining() != 700 {
		t.Fatalf("after refund: remaining %d", m.Remaining())
	}
	if err := m.Consume(701); !errors.Is(err, evm.ErrOutOfGas) {
		t.Fatalf("want ErrOutOfGas, got %v", err)
	}
	if m.Remaining() != 0 {
		t.Fatal("exhaustion must drain the meter")
	}
}

func TestBlockHashOpcode(t *testing.T) {
	e := newEnv(t, nil)
	// The test env has no BlockHash function: BLOCKHASH yields zero.
	e.deploy(asm.MustAssemble(`
		PUSH1 3
		BLOCKHASH
		PUSH1 0
		MSTORE
		PUSH1 32
		PUSH1 0
		RETURN
	`))
	ret, _ := e.call(t, nil)
	if !u256.FromBytes(ret).IsZero() {
		t.Fatalf("BLOCKHASH without oracle = %x", ret)
	}
}
