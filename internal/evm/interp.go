package evm

import (
	"errors"
	"fmt"
	"sync"

	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// EVM executes message calls and contract creations against a StateAccess.
// One EVM value serves one transaction at a time (Reset rebinds it to the
// next); it is not safe for concurrent use.
type EVM struct {
	sched   Schedule
	state   StateAccess
	block   BlockContext
	tx      TxContext
	natives *Registry
	depth   int
}

// New returns an interpreter bound to the given state and context. natives
// may be nil when only bytecode contracts are executed.
func New(sched Schedule, state StateAccess, block BlockContext, tx TxContext, natives *Registry) *EVM {
	e := new(EVM)
	e.Reset(sched, state, block, tx, natives)
	return e
}

// Reset rebinds e to the given state and context, leaving it as New would
// have returned it, so that a caller running one transaction after another
// keeps one EVM instead of allocating one per transaction.
func (e *EVM) Reset(sched Schedule, state StateAccess, block BlockContext, tx TxContext, natives *Registry) {
	*e = EVM{sched: sched, state: state, block: block, tx: tx, natives: natives}
}

// frame is one call frame. Frames are pooled (acquireFrame/releaseFrame):
// the gas meter and stack are embedded by value, and the stack and memory
// backing arrays survive release, so a call frame costs no allocations once
// the pool is warm.
type frame struct {
	self     hashing.Address // storage and balance context
	codeAddr hashing.Address // whose code runs (differs under DELEGATECALL)
	caller   hashing.Address
	code     []byte
	input    []byte
	value    u256.Int
	gas      GasMeter
	static   bool

	mem        memory
	stk        stack
	returnData []byte

	native NativeCall // the host handle of a native contract's frame
}

// nativeCall returns f's host handle for impl, running in e. It lives in
// the pooled frame, so a native call allocates no handle.
func (f *frame) nativeCall(e *EVM, impl Native) *NativeCall {
	f.native = NativeCall{evm: e, frame: f, impl: impl}
	return &f.native
}

// framePool recycles call frames across message calls; a frame is acquired
// and released for every call, so pooling removes the frame, stack, and
// memory allocations from the interpreter hot path.
var framePool = sync.Pool{New: func() any { return new(frame) }}

func acquireFrame() *frame { return framePool.Get().(*frame) }

// releaseFrame zeroes the frame for reuse, retaining the stack's and
// memory's backing arrays. Callers must capture gas.Remaining() and must not
// retain the frame (or views into its memory) past release.
func releaseFrame(f *frame) {
	*f = frame{
		mem: memory{data: f.mem.data[:0]},
		stk: stack{data: f.stk.data[:0]},
	}
	framePool.Put(f)
}

// Call runs a message call from caller to to.
func (e *EVM) Call(caller, to hashing.Address, input []byte, value u256.Int, gas uint64) ([]byte, uint64, error) {
	return e.callInner(caller, to, to, input, value, gas, false, true)
}

// StaticCall runs a read-only message call; any state mutation aborts it.
func (e *EVM) StaticCall(caller, to hashing.Address, input []byte, gas uint64) ([]byte, uint64, error) {
	return e.callInner(caller, to, to, input, u256.Zero(), gas, true, false)
}

// callInner executes code at codeAddr in the storage context of self.
func (e *EVM) callInner(caller, self, codeAddr hashing.Address, input []byte,
	value u256.Int, gas uint64, static, doTransfer bool) ([]byte, uint64, error) {
	if e.depth >= e.sched.CallDepth {
		return nil, gas, ErrCallDepth
	}
	snap := e.state.Snapshot()
	if doTransfer && !value.IsZero() {
		if err := e.transfer(caller, self, value); err != nil {
			return nil, gas, err
		}
	}
	f := acquireFrame()
	f.self = self
	f.codeAddr = codeAddr
	f.caller = caller
	f.code = e.state.GetCode(codeAddr)
	f.input = input
	f.value = value
	f.gas = GasMeter{remaining: gas}
	f.static = static
	f.stk.limit = int(e.sched.StackLimit)
	e.depth++
	ret, err := e.execute(f)
	e.depth--
	gasLeft := f.gas.Remaining()
	releaseFrame(f)
	if err != nil {
		e.state.RevertToSnapshot(snap)
		if errors.Is(err, ErrRevert) {
			return ret, gasLeft, err
		}
		return nil, 0, err
	}
	return ret, gasLeft, nil
}

// Create deploys a payload as a new contract whose address is derived from
// the creator's address and nonce, mixed with the chain id (§III-G(a)).
func (e *EVM) Create(caller hashing.Address, payload []byte, value u256.Int, gas uint64) (hashing.Address, uint64, error) {
	code, impl, args, err := e.resolveDeployment(payload)
	if err != nil {
		return hashing.Address{}, gas, err
	}
	nonce := e.state.GetNonce(caller)
	e.state.SetNonce(caller, nonce+1)
	addr := hashing.CreateAddress(e.block.ChainID, caller, nonce)
	gasLeft, err := e.createAt(caller, addr, code, impl, args, value, gas)
	return addr, gasLeft, err
}

// Create2 deploys a payload at the deterministic, chain-agnostic address
// derived from creator, salt and *stored code* hash. Because the chain id
// is not mixed in (and constructor args do not affect the stored code), a
// contract recreated from the same family keeps its identifier on every
// chain — the property SCoin's per-user accounts rely on (§V-A).
func (e *EVM) Create2(caller hashing.Address, payload []byte, salt Word, value u256.Int, gas uint64) (hashing.Address, uint64, error) {
	code, impl, args, err := e.resolveDeployment(payload)
	if err != nil {
		return hashing.Address{}, gas, err
	}
	addr := hashing.Create2Address(0, caller, salt, hashing.Sum(code))
	gasLeft, err := e.createAt(caller, addr, code, impl, args, value, gas)
	return addr, gasLeft, err
}

// resolveDeployment splits a deployment payload into the code to store and,
// for native contracts, the implementation and constructor arguments.
func (e *EVM) resolveDeployment(payload []byte) (code []byte, impl Native, args []byte, err error) {
	if e.natives != nil {
		if name, nativeArgs, ok := ParseNativeDeployment(payload); ok {
			n, found := e.natives.Lookup(name)
			if !found {
				return nil, nil, nil, fmt.Errorf("%w: native %q not registered", ErrNotContract, name)
			}
			return NativeCode(name), n, nativeArgs, nil
		}
	}
	return payload, nil, nil, nil
}

// createAt charges deployment gas, installs code at addr, and runs a native
// contract's constructor.
//
// Deviating from the production EVM, bytecode is deployed directly rather
// than being executed as an init routine; constructor logic exists only for
// native contracts (OnCreate). The gas charged (Create base + CodeByte per
// deposited byte) matches the cost structure the paper measures in Fig. 9.
func (e *EVM) createAt(caller, addr hashing.Address, code []byte, impl Native,
	args []byte, value u256.Int, gas uint64) (uint64, error) {
	if e.depth >= e.sched.CallDepth {
		return gas, ErrCallDepth
	}
	meter := NewGasMeter(gas)
	if err := meter.Consume(e.sched.Create + e.sched.CodeByte*e.codeSizeOf(code)); err != nil {
		return 0, err
	}
	if len(e.state.GetCode(addr)) > 0 || e.state.GetNonce(addr) > 0 {
		return 0, fmt.Errorf("%w: %s", ErrContractCollision, addr)
	}
	snap := e.state.Snapshot()
	e.state.CreateContract(addr, code)
	if !value.IsZero() {
		if err := e.transfer(caller, addr, value); err != nil {
			e.state.RevertToSnapshot(snap)
			return 0, err
		}
	}
	if impl != nil {
		childGas := meter.Remaining()
		if err := meter.Consume(childGas); err != nil {
			return 0, err
		}
		childFrame := acquireFrame()
		childFrame.self = addr
		childFrame.codeAddr = addr
		childFrame.caller = caller
		childFrame.code = code
		childFrame.value = value
		childFrame.gas = GasMeter{remaining: childGas}
		childFrame.stk.limit = int(e.sched.StackLimit)
		e.depth++
		err := impl.OnCreate(childFrame.nativeCall(e, impl), args)
		e.depth--
		childLeft := childFrame.gas.Remaining()
		releaseFrame(childFrame)
		if err != nil {
			e.state.RevertToSnapshot(snap)
			return 0, fmt.Errorf("constructor: %w", err)
		}
		meter.Refund(childLeft)
	}
	return meter.Remaining(), nil
}

// codeSizeOf returns the billable size of deployed code: native contracts
// declare an emulated code size so deposit gas reflects the contract they
// stand in for.
func (e *EVM) codeSizeOf(code []byte) uint64 {
	if e.natives != nil {
		if n, ok := e.natives.lookupByCode(code); ok {
			return uint64(n.CodeSize())
		}
	}
	return uint64(len(code))
}

// transfer moves value between accounts, refusing transfers that touch a
// locked (moved) account: balances are part of the locked state (§III-B).
func (e *EVM) transfer(from, to hashing.Address, amount u256.Int) error {
	if e.state.GetLocation(from) != e.block.ChainID {
		return fmt.Errorf("%w: sender %s", ErrContractMoved, from)
	}
	if e.state.GetLocation(to) != e.block.ChainID {
		return fmt.Errorf("%w: recipient %s", ErrContractMoved, to)
	}
	if e.state.GetBalance(from).Lt(amount) {
		return ErrInsufficientBalance
	}
	e.state.SubBalance(from, amount)
	e.state.AddBalance(to, amount)
	return nil
}

// requireWritable rejects mutation when the frame is static or the target
// contract has been locked by Move1.
func (e *EVM) requireWritable(f *frame) error {
	if f.static {
		return ErrWriteProtection
	}
	if e.state.GetLocation(f.self) != e.block.ChainID {
		return fmt.Errorf("%w: %s", ErrContractMoved, f.self)
	}
	return nil
}

// execute dispatches a frame to the native implementation or the bytecode
// interpreter.
func (e *EVM) execute(f *frame) ([]byte, error) {
	if e.natives != nil {
		if n, ok := e.natives.lookupByCode(f.code); ok {
			return e.runNative(f, n)
		}
	}
	if len(f.code) == 0 {
		return nil, nil
	}
	return e.interpret(f)
}

// interpret is the bytecode execution loop.
func (e *EVM) interpret(f *frame) ([]byte, error) {
	var (
		s         = &e.sched
		dests     = cachedJumpdests(e.state.GetCodeHash(f.codeAddr), f.code)
		pc        uint64
		memWords  uint64
		codeLen   = uint64(len(f.code))
		zeroWord  u256.Int
		returnVal []byte
	)
	// expand charges memory expansion gas for [off, off+size) and returns
	// concrete offsets. size == 0 yields (0, 0).
	expand := func(off, size u256.Int) (uint64, uint64, error) {
		if size.IsZero() {
			return 0, 0, nil
		}
		words, ok := f.mem.expansionWords(off, size)
		if !ok {
			return 0, 0, ErrMemoryLimit
		}
		if words > memWords {
			if err := f.gas.Consume(memoryGas(s, words) - memoryGas(s, memWords)); err != nil {
				return 0, 0, err
			}
			f.mem.resize(words)
			memWords = words
		}
		return off.Uint64(), size.Uint64(), nil
	}

	for pc < codeLen {
		op := Opcode(f.code[pc])
		switch {
		case op.IsPush():
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			n := uint64(op.PushSize())
			end := pc + 1 + n
			if end > codeLen {
				end = codeLen
			}
			if err := f.stk.push(u256.FromBytes(f.code[pc+1 : end])); err != nil {
				return nil, err
			}
			pc += 1 + n
			continue

		case op >= DUP1 && op <= DUP16:
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			if err := f.stk.dup(int(op-DUP1) + 1); err != nil {
				return nil, err
			}
			pc++
			continue

		case op >= SWAP1 && op <= SWAP16:
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			if err := f.stk.swap(int(op-SWAP1) + 1); err != nil {
				return nil, err
			}
			pc++
			continue
		}

		switch op {
		case STOP:
			return nil, nil

		case ADD, SUB, AND, OR, XOR, LT, GT, SLT, SGT, EQ:
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			a, b, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			var r u256.Int
			switch op {
			case ADD:
				r = a.Add(b)
			case SUB:
				r = a.Sub(b)
			case AND:
				r = a.And(b)
			case OR:
				r = a.Or(b)
			case XOR:
				r = a.Xor(b)
			case LT:
				r = boolWord(a.Lt(b))
			case GT:
				r = boolWord(a.Gt(b))
			case SLT:
				r = boolWord(a.Slt(b))
			case SGT:
				r = boolWord(a.Sgt(b))
			case EQ:
				r = boolWord(a.Eq(b))
			}
			if err := f.stk.push(r); err != nil {
				return nil, err
			}

		case MUL, DIV, SDIV, MOD, SMOD, SIGNEXTEND:
			if err := f.gas.Consume(s.Low); err != nil {
				return nil, err
			}
			a, b, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			var r u256.Int
			switch op {
			case MUL:
				r = a.Mul(b)
			case DIV:
				r = a.Div(b)
			case SDIV:
				r = a.SDiv(b)
			case MOD:
				r = a.Mod(b)
			case SMOD:
				r = a.SMod(b)
			case SIGNEXTEND:
				r = b.SignExtend(a)
			}
			if err := f.stk.push(r); err != nil {
				return nil, err
			}

		case ADDMOD, MULMOD:
			if err := f.gas.Consume(s.Mid); err != nil {
				return nil, err
			}
			a, b, m, err := f.stk.pop3()
			if err != nil {
				return nil, err
			}
			var r u256.Int
			if op == ADDMOD {
				r = a.AddMod(b, m)
			} else {
				r = a.MulMod(b, m)
			}
			if err := f.stk.push(r); err != nil {
				return nil, err
			}

		case EXP:
			a, b, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			expBytes := uint64((b.BitLen() + 7) / 8)
			if err := f.gas.Consume(s.Exp + s.ExpByte*expBytes); err != nil {
				return nil, err
			}
			if err := f.stk.push(a.Exp(b)); err != nil {
				return nil, err
			}

		case ISZERO, NOT:
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			a, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			var r u256.Int
			if op == ISZERO {
				r = boolWord(a.IsZero())
			} else {
				r = a.Not()
			}
			if err := f.stk.push(r); err != nil {
				return nil, err
			}

		case BYTE, SHL, SHR, SAR:
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			a, b, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			var r u256.Int
			switch op {
			case BYTE:
				r = b.Byte(a)
			case SHL:
				r = b.Shl(a)
			case SHR:
				r = b.Shr(a)
			case SAR:
				r = b.Sar(a)
			}
			if err := f.stk.push(r); err != nil {
				return nil, err
			}

		case SHA3:
			off, size, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			offU, sizeU, err := expand(off, size)
			if err != nil {
				return nil, err
			}
			if err := f.gas.Consume(s.Sha3 + s.Sha3Word*toWords(sizeU)); err != nil {
				return nil, err
			}
			h := hashing.Sum(f.mem.read(offU, sizeU))
			if err := f.stk.push(u256.FromBytes(h[:])); err != nil {
				return nil, err
			}

		case ADDRESS, ORIGIN, CALLER, CALLVALUE, CALLDATASIZE, CODESIZE,
			GASPRICE, COINBASE, TIMESTAMP, NUMBER, DIFFICULTY, GASLIMIT,
			CHAINID, PC, MSIZE, GAS, RETURNDATASIZE, LOCATION:
			if err := f.gas.Consume(s.Base); err != nil {
				return nil, err
			}
			var r u256.Int
			switch op {
			case ADDRESS:
				r = addrWord(f.self)
			case ORIGIN:
				r = addrWord(e.tx.Origin)
			case CALLER:
				r = addrWord(f.caller)
			case CALLVALUE:
				r = f.value
			case CALLDATASIZE:
				r = u256.FromUint64(uint64(len(f.input)))
			case CODESIZE:
				r = u256.FromUint64(codeLen)
			case GASPRICE:
				r = e.tx.GasPrice
			case COINBASE:
				r = addrWord(e.block.Coinbase)
			case TIMESTAMP:
				r = u256.FromUint64(e.block.Time)
			case NUMBER:
				r = u256.FromUint64(e.block.Number)
			case DIFFICULTY:
				r = e.block.Difficulty
			case GASLIMIT:
				r = u256.FromUint64(e.block.GasLimit)
			case CHAINID:
				r = u256.FromUint64(uint64(e.block.ChainID))
			case PC:
				r = u256.FromUint64(pc)
			case MSIZE:
				r = u256.FromUint64(f.mem.size())
			case GAS:
				r = u256.FromUint64(f.gas.Remaining())
			case RETURNDATASIZE:
				r = u256.FromUint64(uint64(len(f.returnData)))
			case LOCATION:
				r = u256.FromUint64(uint64(e.state.GetLocation(f.self)))
			}
			if err := f.stk.push(r); err != nil {
				return nil, err
			}

		case BALANCE, EXTCODEHASH:
			if err := f.gas.Consume(s.Balance); err != nil {
				return nil, err
			}
			a, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			addr := wordAddr(a)
			var r u256.Int
			if op == BALANCE {
				r = e.state.GetBalance(addr)
			} else {
				h := e.state.GetCodeHash(addr)
				r = u256.FromBytes(h[:])
			}
			if err := f.stk.push(r); err != nil {
				return nil, err
			}

		case SELFBALANCE:
			if err := f.gas.Consume(s.Low); err != nil {
				return nil, err
			}
			if err := f.stk.push(e.state.GetBalance(f.self)); err != nil {
				return nil, err
			}

		case EXTCODESIZE:
			if err := f.gas.Consume(s.ExtCode); err != nil {
				return nil, err
			}
			a, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			size := uint64(len(e.state.GetCode(wordAddr(a))))
			if err := f.stk.push(u256.FromUint64(size)); err != nil {
				return nil, err
			}

		case CALLDATALOAD:
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			off, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			if err := f.stk.push(loadWord(f.input, off)); err != nil {
				return nil, err
			}

		case CALLDATACOPY, CODECOPY, RETURNDATACOPY:
			memOff, srcOff, size, err := f.stk.pop3()
			if err != nil {
				return nil, err
			}
			dst, n, err := expand(memOff, size)
			if err != nil {
				return nil, err
			}
			if err := f.gas.Consume(s.VeryLow + s.Copy*toWords(n)); err != nil {
				return nil, err
			}
			var src []byte
			switch op {
			case CALLDATACOPY:
				src = f.input
			case CODECOPY:
				src = f.code
			case RETURNDATACOPY:
				src = f.returnData
				end, over := addU64(srcOff, size)
				if !over || end > uint64(len(src)) {
					return nil, ErrReturnDataOOB
				}
			}
			copyPadded(f.mem.data[dst:dst+n], src, srcOff)

		case EXTCODECOPY:
			a, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			memOff, srcOff, size, err := f.stk.pop3()
			if err != nil {
				return nil, err
			}
			dst, n, err := expand(memOff, size)
			if err != nil {
				return nil, err
			}
			if err := f.gas.Consume(s.ExtCode + s.Copy*toWords(n)); err != nil {
				return nil, err
			}
			copyPadded(f.mem.data[dst:dst+n], e.state.GetCode(wordAddr(a)), srcOff)

		case BLOCKHASH:
			if err := f.gas.Consume(s.BlockHash); err != nil {
				return nil, err
			}
			a, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			var h hashing.Hash
			if e.block.BlockHash != nil && a.IsUint64() {
				h = e.block.BlockHash(a.Uint64())
			}
			if err := f.stk.push(u256.FromBytes(h[:])); err != nil {
				return nil, err
			}

		case POP:
			if err := f.gas.Consume(s.Base); err != nil {
				return nil, err
			}
			if _, err := f.stk.pop(); err != nil {
				return nil, err
			}

		case MLOAD:
			off, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			offU, _, err := expand(off, u256.FromUint64(32))
			if err != nil {
				return nil, err
			}
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			if err := f.stk.push(f.mem.readWord(offU)); err != nil {
				return nil, err
			}

		case MSTORE:
			off, v, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			offU, _, err := expand(off, u256.FromUint64(32))
			if err != nil {
				return nil, err
			}
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			f.mem.writeWord(offU, v)

		case MSTORE8:
			off, v, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			offU, _, err := expand(off, u256.FromUint64(1))
			if err != nil {
				return nil, err
			}
			if err := f.gas.Consume(s.VeryLow); err != nil {
				return nil, err
			}
			f.mem.data[offU] = byte(v.Uint64())

		case SLOAD:
			if err := f.gas.Consume(s.SLoad); err != nil {
				return nil, err
			}
			k, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			v := e.state.GetStorage(f.self, k.Bytes32())
			if err := f.stk.push(u256.FromBytes(v[:])); err != nil {
				return nil, err
			}

		case SSTORE:
			if err := e.requireWritable(f); err != nil {
				return nil, err
			}
			k, v, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			key := k.Bytes32()
			old := e.state.GetStorage(f.self, key)
			cost := s.SStoreRe
			if old == zeroWord.Bytes32() && !v.IsZero() {
				cost = s.SStoreSet
			}
			if err := f.gas.Consume(cost); err != nil {
				return nil, err
			}
			e.state.SetStorage(f.self, key, v.Bytes32())

		case JUMP:
			if err := f.gas.Consume(s.Mid); err != nil {
				return nil, err
			}
			dest, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			if !dest.IsUint64() || !dests[dest.Uint64()] {
				return nil, fmt.Errorf("%w: pc %s", ErrInvalidJump, dest)
			}
			pc = dest.Uint64()
			continue

		case JUMPI:
			if err := f.gas.Consume(s.High); err != nil {
				return nil, err
			}
			dest, cond, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			if !cond.IsZero() {
				if !dest.IsUint64() || !dests[dest.Uint64()] {
					return nil, fmt.Errorf("%w: pc %s", ErrInvalidJump, dest)
				}
				pc = dest.Uint64()
				continue
			}

		case JUMPDEST:
			if err := f.gas.Consume(s.JumpDest); err != nil {
				return nil, err
			}

		case LOG0, LOG1, LOG2, LOG3, LOG4:
			if err := e.requireWritable(f); err != nil {
				return nil, err
			}
			off, size, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			offU, sizeU, err := expand(off, size)
			if err != nil {
				return nil, err
			}
			topicCount := int(op - LOG0)
			topics := make([]hashing.Hash, topicCount)
			for i := 0; i < topicCount; i++ {
				t, err := f.stk.pop()
				if err != nil {
					return nil, err
				}
				topics[i] = hashing.HashFromBytes(t.Bytes())
			}
			cost := s.Log + s.LogTopic*uint64(topicCount) + s.LogByte*sizeU
			if err := f.gas.Consume(cost); err != nil {
				return nil, err
			}
			e.state.AddLog(&Log{Address: f.self, Topics: topics, Data: f.mem.read(offU, sizeU)})

		case MOVE:
			// Move1's low-level effect: set Lc to the target chain, locking
			// the contract on this chain (paper Alg. 1 line 3).
			if err := e.requireWritable(f); err != nil {
				return nil, err
			}
			if err := f.gas.Consume(s.Move); err != nil {
				return nil, err
			}
			target, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			if !target.IsUint64() || target.IsZero() {
				return nil, fmt.Errorf("%w: bad chain id %s", ErrMoveSelfTarget, target)
			}
			dst := hashing.ChainID(target.Uint64())
			if dst == e.block.ChainID {
				return nil, ErrMoveSelfTarget
			}
			e.state.SetLocation(f.self, dst)
			e.state.SetMoveNonce(f.self, e.state.GetMoveNonce(f.self)+1)

		case CREATE, CREATE2:
			if err := e.requireWritable(f); err != nil {
				return nil, err
			}
			value, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			off, size, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			var salt Word
			if op == CREATE2 {
				sv, err := f.stk.pop()
				if err != nil {
					return nil, err
				}
				salt = sv.Bytes32()
			}
			offU, sizeU, err := expand(off, size)
			if err != nil {
				return nil, err
			}
			code := f.mem.read(offU, sizeU)
			childGas := allButOne64th(f.gas.Remaining())
			if err := f.gas.Consume(childGas); err != nil {
				return nil, err
			}
			var addr hashing.Address
			var left uint64
			if op == CREATE {
				addr, left, err = e.Create(f.self, code, value, childGas)
			} else {
				addr, left, err = e.Create2(f.self, code, salt, value, childGas)
			}
			f.gas.Refund(left)
			if err != nil {
				if err := f.stk.push(u256.Zero()); err != nil {
					return nil, err
				}
			} else {
				if err := f.stk.push(addrWord(addr)); err != nil {
					return nil, err
				}
			}

		case CALL, STATICCALL, DELEGATECALL:
			ret, err := e.opCall(f, op, expand)
			if err != nil {
				return nil, err
			}
			if err := f.stk.push(ret); err != nil {
				return nil, err
			}

		case RETURN, REVERT:
			off, size, err := f.stk.pop2()
			if err != nil {
				return nil, err
			}
			offU, sizeU, err := expand(off, size)
			if err != nil {
				return nil, err
			}
			returnVal = f.mem.read(offU, sizeU)
			if op == REVERT {
				return returnVal, ErrRevert
			}
			return returnVal, nil

		case SELFDESTRUCT:
			if err := e.requireWritable(f); err != nil {
				return nil, err
			}
			if err := f.gas.Consume(s.SStoreRe); err != nil {
				return nil, err
			}
			a, err := f.stk.pop()
			if err != nil {
				return nil, err
			}
			beneficiary := wordAddr(a)
			bal := e.state.GetBalance(f.self)
			if !bal.IsZero() {
				if err := e.transfer(f.self, beneficiary, bal); err != nil {
					return nil, err
				}
			}
			e.state.DeleteAccount(f.self)
			return nil, nil

		default:
			return nil, fmt.Errorf("%w: %s at pc %d", ErrInvalidOpcode, op, pc)
		}
		pc++
	}
	return nil, nil
}

// opCall implements the CALL family; it returns the success word to push.
func (e *EVM) opCall(f *frame, op Opcode, expand func(off, size u256.Int) (uint64, uint64, error)) (u256.Int, error) {
	s := &e.sched
	gasReq, err := f.stk.pop()
	if err != nil {
		return u256.Int{}, err
	}
	toW, err := f.stk.pop()
	if err != nil {
		return u256.Int{}, err
	}
	value := u256.Zero()
	if op == CALL {
		if value, err = f.stk.pop(); err != nil {
			return u256.Int{}, err
		}
	}
	inOff, inSize, err := f.stk.pop2()
	if err != nil {
		return u256.Int{}, err
	}
	outOff, outSize, err := f.stk.pop2()
	if err != nil {
		return u256.Int{}, err
	}
	inOffU, inSizeU, err := expand(inOff, inSize)
	if err != nil {
		return u256.Int{}, err
	}
	outOffU, outSizeU, err := expand(outOff, outSize)
	if err != nil {
		return u256.Int{}, err
	}
	cost := s.Call
	if !value.IsZero() {
		cost += s.CallValue
		if !e.state.Exists(wordAddr(toW)) {
			cost += s.NewAccount
		}
	}
	if err := f.gas.Consume(cost); err != nil {
		return u256.Int{}, err
	}
	if op == CALL && !value.IsZero() && f.static {
		return u256.Int{}, ErrWriteProtection
	}

	childGas := allButOne64th(f.gas.Remaining())
	if gasReq.IsUint64() && gasReq.Uint64() < childGas {
		childGas = gasReq.Uint64()
	}
	if err := f.gas.Consume(childGas); err != nil {
		return u256.Int{}, err
	}
	if !value.IsZero() {
		childGas += s.CallStip
	}

	input := f.mem.read(inOffU, inSizeU)
	to := wordAddr(toW)
	var (
		ret  []byte
		left uint64
	)
	switch op {
	case CALL:
		ret, left, err = e.callInner(f.self, to, to, input, value, childGas, f.static, true)
	case STATICCALL:
		ret, left, err = e.callInner(f.self, to, to, input, u256.Zero(), childGas, true, false)
	case DELEGATECALL:
		ret, left, err = e.callInner(f.caller, f.self, to, input, f.value, childGas, f.static, false)
	}
	f.gas.Refund(left)
	f.returnData = ret
	if outSizeU > 0 {
		copyPadded(f.mem.data[outOffU:outOffU+outSizeU], ret, u256.Zero())
	}
	if err != nil {
		return u256.Zero(), nil // push 0: call failed
	}
	return u256.One(), nil
}

// runNative executes a registered native contract within frame f.
func (e *EVM) runNative(f *frame, n Native) ([]byte, error) {
	return n.Run(f.nativeCall(e, n), f.input)
}

// jumpdestCache memoizes jumpdest analysis by code hash: contracts are
// called many times per run, and rescanning the code for every frame is
// O(len(code)) of pure waste. The cache is package-level and shared across
// EVM instances — including parallel simulation universes — which is safe
// because entries are keyed by content hash. It is bounded by flushing
// wholesale when it reaches jumpdestCacheLimit distinct code blobs.
var jumpdestCache = struct {
	sync.RWMutex
	m map[hashing.Hash][]bool
}{m: make(map[hashing.Hash][]bool)}

const jumpdestCacheLimit = 4096

// cachedJumpdests returns the jumpdest bitmap for code, consulting the cache
// when a non-zero code hash is available.
func cachedJumpdests(codeHash hashing.Hash, code []byte) []bool {
	if codeHash.IsZero() {
		return jumpdests(code)
	}
	jumpdestCache.RLock()
	dests, ok := jumpdestCache.m[codeHash]
	jumpdestCache.RUnlock()
	if ok {
		return dests
	}
	dests = jumpdests(code)
	jumpdestCache.Lock()
	if len(jumpdestCache.m) >= jumpdestCacheLimit {
		jumpdestCache.m = make(map[hashing.Hash][]bool, jumpdestCacheLimit)
	}
	jumpdestCache.m[codeHash] = dests
	jumpdestCache.Unlock()
	return dests
}

// jumpdests scans code and marks valid JUMPDEST positions, skipping PUSH
// immediates.
func jumpdests(code []byte) []bool {
	dests := make([]bool, len(code))
	for i := 0; i < len(code); i++ {
		op := Opcode(code[i])
		if op == JUMPDEST {
			dests[i] = true
		}
		i += op.PushSize()
	}
	return dests
}

func boolWord(b bool) u256.Int {
	if b {
		return u256.One()
	}
	return u256.Zero()
}

func addrWord(a hashing.Address) u256.Int { return u256.FromBytes(a[:]) }

func wordAddr(v u256.Int) hashing.Address {
	w := v.Bytes32()
	return hashing.AddressFromBytes(w[:])
}

// loadWord reads the 32-byte word at offset off from data, zero-padded.
func loadWord(data []byte, off u256.Int) u256.Int {
	if !off.IsUint64() || off.Uint64() >= uint64(len(data)) {
		return u256.Zero()
	}
	start := off.Uint64()
	end := start + 32
	if end > uint64(len(data)) {
		end = uint64(len(data))
	}
	var buf [32]byte
	copy(buf[:], data[start:end])
	return u256.FromBytes(buf[:])
}

// copyPadded copies src[srcOff:] into dst, zero-filling past the end of src.
func copyPadded(dst, src []byte, srcOff u256.Int) {
	for i := range dst {
		dst[i] = 0
	}
	if !srcOff.IsUint64() {
		return
	}
	off := srcOff.Uint64()
	if off >= uint64(len(src)) {
		return
	}
	copy(dst, src[off:])
}

// addU64 adds with overflow detection; ok is false on overflow.
func addU64(a, b u256.Int) (sum uint64, ok bool) {
	if !a.IsUint64() || !b.IsUint64() {
		return 0, false
	}
	s := a.Uint64() + b.Uint64()
	if s < a.Uint64() {
		return 0, false
	}
	return s, true
}

// allButOne64th implements the EIP-150 63/64 child gas cap.
func allButOne64th(gas uint64) uint64 { return gas - gas/64 }
