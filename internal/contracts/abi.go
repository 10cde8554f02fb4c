// Package contracts is the movable contract standard library of the paper:
// the Listing-1 movable-contract pattern (owner guard, minimum residency,
// moveTo/moveFinish), the STokenI/AccountI scalable token interfaces of
// Listing 2 with the SCoin implementation, ScalableKitties (§V-B), the
// Store-N state-transfer contracts of the IBC experiments (§VIII), and the
// currency-pegging relay of Fig. 3.
//
// Contracts are native (Go) implementations executed by the EVM host with
// the same gas accounting and move-lock rules as bytecode; see DESIGN.md's
// substitution table.
package contracts

import (
	"errors"
	"fmt"

	"scmove/internal/codec"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// ErrBadCall reports malformed calldata.
var ErrBadCall = errors.New("contracts: malformed call data")

// ErrNoEvent reports receipt logs that lack the event a decoder reads.
var ErrNoEvent = errors.New("contracts: event missing")

// eventData returns the data of the first log whose one topic is topic.
// Every decoded event is emitted once per call, so the first is the only
// one.
func eventData(logs []*evm.Log, topic hashing.Hash, name string) ([]byte, error) {
	for _, log := range logs {
		if len(log.Topics) == 1 && log.Topics[0] == topic {
			return log.Data, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoEvent, name)
}

// EncodeCall builds calldata for a native contract method, in one buffer of
// exactly its size.
func EncodeCall(method string, args ...[]byte) []byte {
	size := codec.SizeBytes(len(method)) + codec.SizeUvarint(uint64(len(args)))
	for _, a := range args {
		size += codec.SizeBytes(len(a))
	}
	w := codec.NewWriter(size)
	w.WriteString(method)
	w.WriteUvarint(uint64(len(args)))
	for _, a := range args {
		w.WriteBytes(a)
	}
	return w.Bytes()
}

// DecodeCall parses calldata built by EncodeCall. The arguments alias
// input and must not be written: every caller converts them (AsAddress,
// AsUint, …) before the call returns.
func DecodeCall(input []byte) (method string, args [][]byte, err error) {
	r := codec.NewReader(input)
	method = r.ReadString()
	n := r.ReadUvarint()
	if n > 64 {
		return "", nil, fmt.Errorf("%w: too many arguments", ErrBadCall)
	}
	args = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		a := r.ReadBytesView()
		args = append(args, a[:len(a):len(a)])
	}
	if err := r.Finish(); err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadCall, err)
	}
	return method, args, nil
}

// Argument encoding helpers.

// ArgAddress encodes an address argument.
func ArgAddress(a hashing.Address) []byte { return a.Bytes() }

// ArgUint encodes an unsigned integer argument.
func ArgUint(v uint64) []byte {
	w := codec.NewWriter(9)
	w.WriteUvarint(v)
	return w.Bytes()
}

// ArgWord encodes a 32-byte word argument.
func ArgWord(w evm.Word) []byte { return append([]byte{}, w[:]...) }

// ArgU256 encodes a 256-bit integer argument.
func ArgU256(v u256.Int) []byte {
	b := v.Bytes32()
	return b[:]
}

// AsAddress decodes an address argument.
func AsAddress(b []byte) (hashing.Address, error) {
	if len(b) != hashing.AddressSize {
		return hashing.Address{}, fmt.Errorf("%w: want address, got %d bytes", ErrBadCall, len(b))
	}
	var a hashing.Address
	copy(a[:], b)
	return a, nil
}

// AsUint decodes an unsigned integer argument.
func AsUint(b []byte) (uint64, error) {
	r := codec.NewReader(b)
	v := r.ReadUvarint()
	if err := r.Finish(); err != nil {
		return 0, fmt.Errorf("%w: want uint, %v", ErrBadCall, err)
	}
	return v, nil
}

// AsWord decodes a 32-byte word argument.
func AsWord(b []byte) (evm.Word, error) {
	if len(b) != 32 {
		return evm.Word{}, fmt.Errorf("%w: want word, got %d bytes", ErrBadCall, len(b))
	}
	var w evm.Word
	copy(w[:], b)
	return w, nil
}

// AsU256 decodes a 256-bit integer argument.
func AsU256(b []byte) (u256.Int, error) {
	w, err := AsWord(b)
	if err != nil {
		return u256.Int{}, err
	}
	return u256.FromBytes(w[:]), nil
}

// Return encoding helpers (single values).

// RetUint encodes an unsigned integer return value.
func RetUint(v uint64) []byte { return u256.FromUint64(v).Bytes() }

// RetU256 encodes a 256-bit return value.
func RetU256(v u256.Int) []byte {
	b := v.Bytes32()
	return b[:]
}

// RetAddress encodes an address return value.
func RetAddress(a hashing.Address) []byte { return a.Bytes() }

// RetBool encodes a boolean return value.
func RetBool(b bool) []byte {
	if b {
		return []byte{1}
	}
	return []byte{0}
}

// wantArgs checks the argument count of a method call.
func wantArgs(method string, args [][]byte, n int) error {
	if len(args) != n {
		return fmt.Errorf("%w: %s wants %d args, got %d", ErrBadCall, method, n, len(args))
	}
	return nil
}
