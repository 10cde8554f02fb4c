package evm

import (
	"errors"
	"fmt"
)

// ErrOutOfGas reports gas exhaustion in the current frame.
var ErrOutOfGas = errors.New("evm: out of gas")

// Schedule is a gas cost schedule. Both chains run the same opcode costs
// (modeled on the Istanbul yellow paper constants) but differ in contract
// creation charges: Ethereum pays per byte of deposited code while Burrow
// does not (paper §VIII, Fig. 9 discussion).
type Schedule struct {
	// Name identifies the schedule in logs and experiment output.
	Name string

	Zero    uint64 // STOP, RETURN, REVERT
	Base    uint64 // ADDRESS, CALLER, ... (2)
	VeryLow uint64 // ADD, AND, PUSH, DUP, ... (3)
	Low     uint64 // MUL, DIV, ... (5)
	Mid     uint64 // ADDMOD, JUMP, ... (8)
	High    uint64 // JUMPI (10)

	Exp        uint64 // EXP base cost
	ExpByte    uint64 // per byte of exponent
	Sha3       uint64 // SHA3 base
	Sha3Word   uint64 // per 32-byte word hashed
	Copy       uint64 // per word copied (CALLDATACOPY etc.)
	Balance    uint64 // BALANCE, EXTCODEHASH
	ExtCode    uint64 // EXTCODESIZE/EXTCODECOPY base
	BlockHash  uint64 // BLOCKHASH
	SLoad      uint64
	SStoreSet  uint64 // zero -> non-zero
	SStoreRe   uint64 // non-zero -> non-zero (or -> zero)
	JumpDest   uint64
	Log        uint64 // LOG base
	LogTopic   uint64 // per topic
	LogByte    uint64 // per payload byte
	Create     uint64 // CREATE/CREATE2 base
	CodeByte   uint64 // per byte of deposited code (0 on Burrow)
	Call       uint64 // CALL family base
	CallValue  uint64 // surcharge for value-bearing calls
	CallStip   uint64 // stipend passed to the callee on value transfer
	NewAccount uint64 // surcharge for calls creating the destination
	Move       uint64 // OP_MOVE: write Lc and lock the contract
	Memory     uint64 // per word of memory expansion
	QuadDiv    uint64 // quadratic memory term divisor

	TxBase        uint64 // intrinsic gas per transaction
	TxDataZero    uint64 // per zero calldata byte
	TxDataNonZero uint64 // per non-zero calldata byte

	StackLimit uint64
	CallDepth  int
}

// EthereumSchedule returns the gas schedule of the Ethereum-like chain.
func EthereumSchedule() Schedule {
	s := baseSchedule()
	s.Name = "ethereum"
	s.CodeByte = 200
	return s
}

// BurrowSchedule returns the gas schedule of the Burrow-like chain: same
// opcode costs, but no per-byte charge for deposited contract code.
func BurrowSchedule() Schedule {
	s := baseSchedule()
	s.Name = "burrow"
	s.CodeByte = 0
	return s
}

func baseSchedule() Schedule {
	return Schedule{
		Zero:    0,
		Base:    2,
		VeryLow: 3,
		Low:     5,
		Mid:     8,
		High:    10,

		Exp:        10,
		ExpByte:    50,
		Sha3:       30,
		Sha3Word:   6,
		Copy:       3,
		Balance:    700,
		ExtCode:    700,
		BlockHash:  20,
		SLoad:      800,
		SStoreSet:  20000,
		SStoreRe:   5000,
		JumpDest:   1,
		Log:        375,
		LogTopic:   375,
		LogByte:    8,
		Create:     32000,
		Call:       700,
		CallValue:  9000,
		CallStip:   2300,
		NewAccount: 25000,
		Move:       5000,
		Memory:     3,
		QuadDiv:    512,

		TxBase:        21000,
		TxDataZero:    4,
		TxDataNonZero: 16,

		StackLimit: 1024,
		CallDepth:  1024,
	}
}

// IntrinsicGas returns the gas charged for a transaction before execution.
func (s *Schedule) IntrinsicGas(data []byte, create bool) uint64 {
	gas := s.TxBase
	if create {
		gas += s.Create
	}
	for _, b := range data {
		if b == 0 {
			gas += s.TxDataZero
		} else {
			gas += s.TxDataNonZero
		}
	}
	return gas
}

// GasMeter tracks gas available to one call frame tree.
type GasMeter struct {
	remaining uint64
}

// NewGasMeter returns a meter with the given gas budget.
func NewGasMeter(limit uint64) *GasMeter {
	return &GasMeter{remaining: limit}
}

// Consume deducts amount, returning ErrOutOfGas if the budget is exhausted.
func (g *GasMeter) Consume(amount uint64) error {
	if amount > g.remaining {
		g.remaining = 0
		return fmt.Errorf("%w: need %d", ErrOutOfGas, amount)
	}
	g.remaining -= amount
	return nil
}

// Refund returns unused gas to the meter (used when a child frame finishes).
func (g *GasMeter) Refund(amount uint64) { g.remaining += amount }

// Remaining returns the gas still available.
func (g *GasMeter) Remaining() uint64 { return g.remaining }

// memoryGas returns the total gas cost of expanding memory to size bytes.
func memoryGas(s *Schedule, sizeWords uint64) uint64 {
	return s.Memory*sizeWords + sizeWords*sizeWords/s.QuadDiv
}

// toWords rounds a byte size up to 32-byte words.
func toWords(size uint64) uint64 { return (size + 31) / 32 }
