package evm

import (
	"fmt"
	"strings"

	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// nativePrefix marks account code that designates a native contract.
const nativePrefix = "native/"

// Native is a contract implemented in Go but executed by the VM host with
// the same gas accounting, storage semantics, and move-lock enforcement as
// bytecode contracts. This stands in for the paper's Solidity contracts
// (DESIGN.md, substitutions): the programming interface — moveTo/moveFinish
// callbacks plus ordinary methods — is exactly the one Listing 1 describes.
type Native interface {
	// Name is the registry key; the deployed code is "native/<Name>".
	Name() string
	// CodeSize is the emulated deployed-code size in bytes. Creation is
	// charged CodeByte * CodeSize so that Fig. 9's contract-creation costs
	// are reproduced faithfully.
	CodeSize() int
	// OnCreate runs once at deployment with the constructor arguments.
	OnCreate(call *NativeCall, args []byte) error
	// Run executes a method call and returns the ABI-encoded result.
	Run(call *NativeCall, input []byte) ([]byte, error)
}

// NativeCode returns the code blob that designates the named native
// contract when stored as account code.
func NativeCode(name string) []byte { return []byte(nativePrefix + name) }

// NativeDeployment encodes a deployment payload for a native contract: the
// code designator followed by constructor arguments. Create/Create2 detect
// this form, store the bare designator as the account code (so code hashes
// — and CREATE2 sibling attestation — do not depend on constructor args),
// and run the contract's OnCreate hook with args.
func NativeDeployment(name string, args []byte) []byte {
	payload := append([]byte(nativePrefix+name), 0x00)
	return append(payload, args...)
}

// ParseNativeDeployment recognizes a NativeDeployment payload.
func ParseNativeDeployment(payload []byte) (name string, args []byte, ok bool) {
	if !strings.HasPrefix(string(payload), nativePrefix) {
		return "", nil, false
	}
	rest := payload[len(nativePrefix):]
	for i, b := range rest {
		if b == 0x00 {
			return string(rest[:i]), rest[i+1:], true
		}
	}
	// A bare designator (no args separator) is also a valid deployment.
	return string(rest), nil, true
}

// Registry resolves native contracts by name. Construct with NewRegistry;
// registries are immutable after construction and safe for concurrent use.
type Registry struct {
	byName map[string]Native
}

// NewRegistry builds a registry from the given implementations.
func NewRegistry(impls ...Native) (*Registry, error) {
	byName := make(map[string]Native, len(impls))
	for _, n := range impls {
		if n.Name() == "" || strings.ContainsRune(n.Name(), '/') {
			return nil, fmt.Errorf("evm: invalid native contract name %q", n.Name())
		}
		if _, dup := byName[n.Name()]; dup {
			return nil, fmt.Errorf("evm: duplicate native contract %q", n.Name())
		}
		byName[n.Name()] = n
	}
	return &Registry{byName: byName}, nil
}

// MustNewRegistry is NewRegistry for statically-known sets; panics on error.
func MustNewRegistry(impls ...Native) *Registry {
	r, err := NewRegistry(impls...)
	if err != nil {
		panic(err)
	}
	return r
}

// Lookup resolves a native contract by name.
func (r *Registry) Lookup(name string) (Native, bool) {
	n, ok := r.byName[name]
	return n, ok
}

// BillableCodeSize returns the gas-billable size of deployed code: native
// contracts declare an emulated size; bytecode is billed by length. A nil
// registry bills everything by length.
func BillableCodeSize(r *Registry, code []byte) uint64 {
	if r != nil {
		if n, ok := r.lookupByCode(code); ok {
			return uint64(n.CodeSize())
		}
	}
	return uint64(len(code))
}

func (r *Registry) lookupByCode(code []byte) (Native, bool) {
	if !strings.HasPrefix(string(code), nativePrefix) {
		return nil, false
	}
	return r.Lookup(string(code[len(nativePrefix):]))
}

// NativeCall is the host environment handed to a native contract. Every
// state-touching method charges gas through the frame's meter and enforces
// the same static/move-lock rules as the corresponding opcodes, so native
// and bytecode contracts are indistinguishable to the protocol and to the
// gas measurements. A NativeCall is valid only during the Run or OnCreate
// it is passed to: it lives in the call's pooled frame.
type NativeCall struct {
	evm   *EVM
	frame *frame
	impl  Native
}

// Self returns the executing contract's address.
func (c *NativeCall) Self() hashing.Address { return c.frame.self }

// Caller returns the immediate caller.
func (c *NativeCall) Caller() hashing.Address { return c.frame.caller }

// Value returns the currency attached to the call.
func (c *NativeCall) Value() u256.Int { return c.frame.value }

// ChainID returns the executing chain's identifier.
func (c *NativeCall) ChainID() hashing.ChainID { return c.evm.block.ChainID }

// Time returns the current block timestamp (unix seconds, simulated).
func (c *NativeCall) Time() uint64 { return c.evm.block.Time }

// UseGas consumes extra gas, for contracts that model computation beyond
// their storage traffic.
func (c *NativeCall) UseGas(amount uint64) error { return c.frame.gas.Consume(amount) }

// GetStorage reads a storage word (charged as SLOAD).
func (c *NativeCall) GetStorage(key Word) (Word, error) {
	if err := c.frame.gas.Consume(c.evm.sched.SLoad); err != nil {
		return Word{}, err
	}
	return c.evm.state.GetStorage(c.frame.self, key), nil
}

// SetStorage writes a storage word (charged as SSTORE); the zero value
// deletes the entry.
func (c *NativeCall) SetStorage(key, value Word) error {
	if err := c.evm.requireWritable(c.frame); err != nil {
		return err
	}
	var zero Word
	old := c.evm.state.GetStorage(c.frame.self, key)
	cost := c.evm.sched.SStoreRe
	if old == zero && value != zero {
		cost = c.evm.sched.SStoreSet
	}
	if err := c.frame.gas.Consume(cost); err != nil {
		return err
	}
	c.evm.state.SetStorage(c.frame.self, key, value)
	return nil
}

// CodeSizeOf returns the byte size of another account's code (charged as
// EXTCODESIZE). Contracts use it to refuse interacting with counterparties
// that are not deployed on this chain.
func (c *NativeCall) CodeSizeOf(addr hashing.Address) (int, error) {
	if err := c.frame.gas.Consume(c.evm.sched.ExtCode); err != nil {
		return 0, err
	}
	return len(c.evm.state.GetCode(addr)), nil
}

// Emit records an event log (charged as LOGn).
func (c *NativeCall) Emit(topics []hashing.Hash, data []byte) error {
	if err := c.evm.requireWritable(c.frame); err != nil {
		return err
	}
	s := &c.evm.sched
	cost := s.Log + s.LogTopic*uint64(len(topics)) + s.LogByte*uint64(len(data))
	if err := c.frame.gas.Consume(cost); err != nil {
		return err
	}
	ts := make([]hashing.Hash, len(topics))
	copy(ts, topics)
	d := make([]byte, len(data))
	copy(d, data)
	c.evm.state.AddLog(&Log{Address: c.frame.self, Topics: ts, Data: d})
	return nil
}

// Transfer sends currency from the executing contract to another account
// (charged as a value-bearing CALL).
func (c *NativeCall) Transfer(to hashing.Address, amount u256.Int) error {
	if err := c.evm.requireWritable(c.frame); err != nil {
		return err
	}
	cost := c.evm.sched.Call + c.evm.sched.CallValue
	if !c.evm.state.Exists(to) {
		cost += c.evm.sched.NewAccount
	}
	if err := c.frame.gas.Consume(cost); err != nil {
		return err
	}
	return c.evm.transfer(c.frame.self, to, amount)
}

// Call invokes another contract (charged as CALL). It returns the callee's
// return data; callee failures surface as errors with state rolled back.
func (c *NativeCall) Call(to hashing.Address, input []byte, value u256.Int) ([]byte, error) {
	if !value.IsZero() {
		if err := c.evm.requireWritable(c.frame); err != nil {
			return nil, err
		}
	}
	cost := c.evm.sched.Call
	if !value.IsZero() {
		cost += c.evm.sched.CallValue
		if !c.evm.state.Exists(to) {
			cost += c.evm.sched.NewAccount
		}
	}
	if err := c.frame.gas.Consume(cost); err != nil {
		return nil, err
	}
	childGas := allButOne64th(c.frame.gas.Remaining())
	if err := c.frame.gas.Consume(childGas); err != nil {
		return nil, err
	}
	ret, left, err := c.evm.callInner(c.frame.self, to, to, input, value, childGas, c.frame.static, true)
	c.frame.gas.Refund(left)
	c.frame.returnData = ret
	if err != nil {
		return ret, fmt.Errorf("call %s: %w", to, err)
	}
	return ret, nil
}

// StaticCall invokes another contract read-only.
func (c *NativeCall) StaticCall(to hashing.Address, input []byte) ([]byte, error) {
	if err := c.frame.gas.Consume(c.evm.sched.Call); err != nil {
		return nil, err
	}
	childGas := allButOne64th(c.frame.gas.Remaining())
	if err := c.frame.gas.Consume(childGas); err != nil {
		return nil, err
	}
	ret, left, err := c.evm.callInner(c.frame.self, to, to, input, u256.Zero(), childGas, true, false)
	c.frame.gas.Refund(left)
	c.frame.returnData = ret
	if err != nil {
		return ret, fmt.Errorf("staticcall %s: %w", to, err)
	}
	return ret, nil
}

// CreateNative deploys a new instance of a registered native contract via
// CREATE2, running its OnCreate hook with args. The address is chain-
// agnostic (derived from creator, salt, and code hash), so instances keep
// their identifier as they move between chains (§V-A).
func (c *NativeCall) CreateNative(name string, salt Word, args []byte, value u256.Int) (hashing.Address, error) {
	if err := c.evm.requireWritable(c.frame); err != nil {
		return hashing.Address{}, err
	}
	childGas := allButOne64th(c.frame.gas.Remaining())
	if err := c.frame.gas.Consume(childGas); err != nil {
		return hashing.Address{}, err
	}
	addr, left, err := c.evm.Create2(c.frame.self, NativeDeployment(name, args), salt, value, childGas)
	c.frame.gas.Refund(left)
	if err != nil {
		return hashing.Address{}, fmt.Errorf("create %q: %w", name, err)
	}
	return addr, nil
}

// Move sets the executing contract's location field Lc to the target chain,
// locking it locally (the OP_MOVE effect, Move1 of Alg. 1). Contracts call
// this from their moveTo implementation after their guards pass.
func (c *NativeCall) Move(target hashing.ChainID) error {
	if err := c.evm.requireWritable(c.frame); err != nil {
		return err
	}
	if err := c.frame.gas.Consume(c.evm.sched.Move); err != nil {
		return err
	}
	if target == 0 {
		return fmt.Errorf("%w: zero chain id", ErrMoveSelfTarget)
	}
	if target == c.evm.block.ChainID {
		return ErrMoveSelfTarget
	}
	c.evm.state.SetLocation(c.frame.self, target)
	c.evm.state.SetMoveNonce(c.frame.self, c.evm.state.GetMoveNonce(c.frame.self)+1)
	return nil
}
