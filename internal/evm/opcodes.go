package evm

import "fmt"

// Opcode is a single EVM instruction byte.
type Opcode byte

// Instruction set. The numbering follows the Ethereum yellow paper for every
// standard opcode; MOVE and LOCATION occupy the unused 0xb0 range, mirroring
// how the paper's prototype extends the EVM with OP_MOVE (§III-C).
const (
	STOP       Opcode = 0x00
	ADD        Opcode = 0x01
	MUL        Opcode = 0x02
	SUB        Opcode = 0x03
	DIV        Opcode = 0x04
	SDIV       Opcode = 0x05
	MOD        Opcode = 0x06
	SMOD       Opcode = 0x07
	ADDMOD     Opcode = 0x08
	MULMOD     Opcode = 0x09
	EXP        Opcode = 0x0a
	SIGNEXTEND Opcode = 0x0b

	LT     Opcode = 0x10
	GT     Opcode = 0x11
	SLT    Opcode = 0x12
	SGT    Opcode = 0x13
	EQ     Opcode = 0x14
	ISZERO Opcode = 0x15
	AND    Opcode = 0x16
	OR     Opcode = 0x17
	XOR    Opcode = 0x18
	NOT    Opcode = 0x19
	BYTE   Opcode = 0x1a
	SHL    Opcode = 0x1b
	SHR    Opcode = 0x1c
	SAR    Opcode = 0x1d

	SHA3 Opcode = 0x20

	ADDRESS        Opcode = 0x30
	BALANCE        Opcode = 0x31
	ORIGIN         Opcode = 0x32
	CALLER         Opcode = 0x33
	CALLVALUE      Opcode = 0x34
	CALLDATALOAD   Opcode = 0x35
	CALLDATASIZE   Opcode = 0x36
	CALLDATACOPY   Opcode = 0x37
	CODESIZE       Opcode = 0x38
	CODECOPY       Opcode = 0x39
	GASPRICE       Opcode = 0x3a
	EXTCODESIZE    Opcode = 0x3b
	EXTCODECOPY    Opcode = 0x3c
	RETURNDATASIZE Opcode = 0x3d
	RETURNDATACOPY Opcode = 0x3e
	EXTCODEHASH    Opcode = 0x3f

	BLOCKHASH   Opcode = 0x40
	COINBASE    Opcode = 0x41
	TIMESTAMP   Opcode = 0x42
	NUMBER      Opcode = 0x43
	DIFFICULTY  Opcode = 0x44
	GASLIMIT    Opcode = 0x45
	CHAINID     Opcode = 0x46
	SELFBALANCE Opcode = 0x47

	POP      Opcode = 0x50
	MLOAD    Opcode = 0x51
	MSTORE   Opcode = 0x52
	MSTORE8  Opcode = 0x53
	SLOAD    Opcode = 0x54
	SSTORE   Opcode = 0x55
	JUMP     Opcode = 0x56
	JUMPI    Opcode = 0x57
	PC       Opcode = 0x58
	MSIZE    Opcode = 0x59
	GAS      Opcode = 0x5a
	JUMPDEST Opcode = 0x5b

	PUSH1  Opcode = 0x60
	PUSH32 Opcode = 0x7f
	DUP1   Opcode = 0x80
	DUP16  Opcode = 0x8f
	SWAP1  Opcode = 0x90
	SWAP16 Opcode = 0x9f

	LOG0 Opcode = 0xa0
	LOG1 Opcode = 0xa1
	LOG2 Opcode = 0xa2
	LOG3 Opcode = 0xa3
	LOG4 Opcode = 0xa4

	// MOVE pops a target chain identifier and sets the executing contract's
	// location field Lc, locking it on this chain (paper §III-C, Move1).
	MOVE Opcode = 0xb0
	// LOCATION pushes the executing contract's current location Lc.
	LOCATION Opcode = 0xb1

	CREATE       Opcode = 0xf0
	CALL         Opcode = 0xf1
	RETURN       Opcode = 0xf3
	DELEGATECALL Opcode = 0xf4
	CREATE2      Opcode = 0xf5
	STATICCALL   Opcode = 0xfa
	REVERT       Opcode = 0xfd
	INVALID      Opcode = 0xfe
	SELFDESTRUCT Opcode = 0xff
)

// IsPush reports whether op is PUSH1..PUSH32.
func (op Opcode) IsPush() bool { return op >= PUSH1 && op <= PUSH32 }

// PushSize returns the number of immediate bytes for a PUSH opcode (0 for
// non-push opcodes).
func (op Opcode) PushSize() int {
	if !op.IsPush() {
		return 0
	}
	return int(op-PUSH1) + 1
}

// Push returns the PUSH opcode carrying n immediate bytes (1 <= n <= 32).
func Push(n int) Opcode {
	if n < 1 || n > 32 {
		panic(fmt.Sprintf("evm: invalid push size %d", n))
	}
	return PUSH1 + Opcode(n-1)
}

// Dup returns DUPn (1 <= n <= 16).
func Dup(n int) Opcode {
	if n < 1 || n > 16 {
		panic(fmt.Sprintf("evm: invalid dup depth %d", n))
	}
	return DUP1 + Opcode(n-1)
}

// Swap returns SWAPn (1 <= n <= 16).
func Swap(n int) Opcode {
	if n < 1 || n > 16 {
		panic(fmt.Sprintf("evm: invalid swap depth %d", n))
	}
	return SWAP1 + Opcode(n-1)
}

var opNames = map[Opcode]string{
	STOP: "STOP", ADD: "ADD", MUL: "MUL", SUB: "SUB", DIV: "DIV",
	SDIV: "SDIV", MOD: "MOD", SMOD: "SMOD", ADDMOD: "ADDMOD",
	MULMOD: "MULMOD", EXP: "EXP", SIGNEXTEND: "SIGNEXTEND",
	LT: "LT", GT: "GT", SLT: "SLT", SGT: "SGT", EQ: "EQ", ISZERO: "ISZERO",
	AND: "AND", OR: "OR", XOR: "XOR", NOT: "NOT", BYTE: "BYTE",
	SHL: "SHL", SHR: "SHR", SAR: "SAR", SHA3: "SHA3",
	ADDRESS: "ADDRESS", BALANCE: "BALANCE", ORIGIN: "ORIGIN",
	CALLER: "CALLER", CALLVALUE: "CALLVALUE", CALLDATALOAD: "CALLDATALOAD",
	CALLDATASIZE: "CALLDATASIZE", CALLDATACOPY: "CALLDATACOPY",
	CODESIZE: "CODESIZE", CODECOPY: "CODECOPY", GASPRICE: "GASPRICE",
	EXTCODESIZE: "EXTCODESIZE", EXTCODECOPY: "EXTCODECOPY",
	RETURNDATASIZE: "RETURNDATASIZE", RETURNDATACOPY: "RETURNDATACOPY",
	EXTCODEHASH: "EXTCODEHASH", BLOCKHASH: "BLOCKHASH", COINBASE: "COINBASE",
	TIMESTAMP: "TIMESTAMP", NUMBER: "NUMBER", DIFFICULTY: "DIFFICULTY",
	GASLIMIT: "GASLIMIT", CHAINID: "CHAINID", SELFBALANCE: "SELFBALANCE",
	POP: "POP", MLOAD: "MLOAD", MSTORE: "MSTORE", MSTORE8: "MSTORE8",
	SLOAD: "SLOAD", SSTORE: "SSTORE", JUMP: "JUMP", JUMPI: "JUMPI",
	PC: "PC", MSIZE: "MSIZE", GAS: "GAS", JUMPDEST: "JUMPDEST",
	LOG0: "LOG0", LOG1: "LOG1", LOG2: "LOG2", LOG3: "LOG3", LOG4: "LOG4",
	MOVE: "MOVE", LOCATION: "LOCATION",
	CREATE: "CREATE", CALL: "CALL", RETURN: "RETURN",
	DELEGATECALL: "DELEGATECALL", CREATE2: "CREATE2",
	STATICCALL: "STATICCALL", REVERT: "REVERT", INVALID: "INVALID",
	SELFDESTRUCT: "SELFDESTRUCT",
}

// String returns the canonical mnemonic for op.
func (op Opcode) String() string {
	if name, ok := opNames[op]; ok {
		return name
	}
	if op.IsPush() {
		return fmt.Sprintf("PUSH%d", op.PushSize())
	}
	if op >= DUP1 && op <= DUP16 {
		return fmt.Sprintf("DUP%d", int(op-DUP1)+1)
	}
	if op >= SWAP1 && op <= SWAP16 {
		return fmt.Sprintf("SWAP%d", int(op-SWAP1)+1)
	}
	return fmt.Sprintf("UNDEFINED(0x%02x)", byte(op))
}

// OpcodeByName resolves a mnemonic (e.g. "PUSH4", "SSTORE") to its opcode.
func OpcodeByName(name string) (Opcode, bool) {
	if op, ok := namesToOps[name]; ok {
		return op, true
	}
	return 0, false
}

var namesToOps = buildNameIndex()

func buildNameIndex() map[string]Opcode {
	m := make(map[string]Opcode, 160)
	for op, name := range opNames {
		m[name] = op
	}
	for n := 1; n <= 32; n++ {
		m[fmt.Sprintf("PUSH%d", n)] = Push(n)
	}
	for n := 1; n <= 16; n++ {
		m[fmt.Sprintf("DUP%d", n)] = Dup(n)
		m[fmt.Sprintf("SWAP%d", n)] = Swap(n)
	}
	return m
}
