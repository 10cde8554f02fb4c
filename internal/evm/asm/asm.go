// Package asm implements a two-pass assembler for the EVM bytecode
// executed by internal/evm. It is how this repository authors low-level
// movable contracts, standing in for the paper's extended Solidity
// toolchain on the bytecode level (§III-D).
//
// Source format: whitespace-separated mnemonics; "; ..." comments to end of
// line; "@name:" defines a label; "PUSH @name" pushes a label address
// (encoded as PUSH2); PUSHn takes one hex (0x...) or decimal immediate.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"scmove/internal/evm"
	"scmove/internal/u256"
)

// Assemble translates assembly source into bytecode.
func Assemble(src string) ([]byte, error) {
	tokens, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	labels, size, err := layout(tokens)
	if err != nil {
		return nil, err
	}
	return emit(tokens, labels, size)
}

// MustAssemble is Assemble for statically-known programs; panics on error.
func MustAssemble(src string) []byte {
	code, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return code
}

type token struct {
	text string
	line int
}

func tokenize(src string) ([]token, error) {
	var tokens []token
	for i, line := range strings.Split(src, "\n") {
		if idx := strings.Index(line, ";"); idx >= 0 {
			line = line[:idx]
		}
		for _, t := range strings.Fields(line) {
			tokens = append(tokens, token{text: t, line: i + 1})
		}
	}
	return tokens, nil
}

// instrSize returns the encoded size of the instruction starting at tokens[i]
// and how many tokens it consumes.
func instrSize(tokens []token, i int) (bytes, consumed int, err error) {
	t := tokens[i]
	switch {
	case strings.HasSuffix(t.text, ":"):
		return 0, 1, nil
	case strings.HasPrefix(strings.ToUpper(t.text), "PUSH"):
		upper := strings.ToUpper(t.text)
		if i+1 >= len(tokens) {
			return 0, 0, fmt.Errorf("asm: line %d: %s needs an immediate", t.line, t.text)
		}
		if strings.HasPrefix(tokens[i+1].text, "@") {
			// Label pushes are always PUSH2 regardless of the mnemonic, and
			// the bare "PUSH" alias is allowed for them.
			if upper != "PUSH" {
				if op, ok := evm.OpcodeByName(upper); !ok || !op.IsPush() {
					return 0, 0, fmt.Errorf("asm: line %d: unknown mnemonic %q", t.line, t.text)
				}
			}
			return 3, 2, nil
		}
		op, ok := evm.OpcodeByName(upper)
		if !ok || !op.IsPush() {
			return 0, 0, fmt.Errorf("asm: line %d: unknown mnemonic %q", t.line, t.text)
		}
		return 1 + op.PushSize(), 2, nil
	default:
		if _, ok := evm.OpcodeByName(strings.ToUpper(t.text)); !ok {
			return 0, 0, fmt.Errorf("asm: line %d: unknown mnemonic %q", t.line, t.text)
		}
		return 1, 1, nil
	}
}

func layout(tokens []token) (map[string]uint16, int, error) {
	labels := make(map[string]uint16)
	offset := 0
	for i := 0; i < len(tokens); {
		t := tokens[i]
		if strings.HasSuffix(t.text, ":") {
			name := strings.TrimSuffix(t.text, ":")
			if !strings.HasPrefix(name, "@") || len(name) < 2 {
				return nil, 0, fmt.Errorf("asm: line %d: labels must look like @name:", t.line)
			}
			if _, dup := labels[name]; dup {
				return nil, 0, fmt.Errorf("asm: line %d: duplicate label %s", t.line, name)
			}
			if offset > 0xffff {
				return nil, 0, fmt.Errorf("asm: line %d: program too large for label addressing", t.line)
			}
			labels[name] = uint16(offset)
			i++
			continue
		}
		size, consumed, err := instrSize(tokens, i)
		if err != nil {
			return nil, 0, err
		}
		offset += size
		i += consumed
	}
	return labels, offset, nil
}

func emit(tokens []token, labels map[string]uint16, size int) ([]byte, error) {
	out := make([]byte, 0, size)
	for i := 0; i < len(tokens); {
		t := tokens[i]
		if strings.HasSuffix(t.text, ":") {
			i++
			continue
		}
		upper := strings.ToUpper(t.text)
		op, known := evm.OpcodeByName(upper)
		if known && !op.IsPush() {
			out = append(out, byte(op))
			i++
			continue
		}
		imm := tokens[i+1]
		if strings.HasPrefix(imm.text, "@") {
			target, ok := labels[imm.text]
			if !ok {
				return nil, fmt.Errorf("asm: line %d: undefined label %s", imm.line, imm.text)
			}
			out = append(out, byte(evm.Push(2)), byte(target>>8), byte(target))
			i += 2
			continue
		}
		val, err := parseImmediate(imm.text)
		if err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", imm.line, err)
		}
		n := op.PushSize()
		full := val.Bytes32()
		if val.BitLen() > n*8 {
			return nil, fmt.Errorf("asm: line %d: immediate %s does not fit PUSH%d", imm.line, imm.text, n)
		}
		out = append(out, byte(op))
		out = append(out, full[32-n:]...)
		i += 2
	}
	return out, nil
}

func parseImmediate(s string) (u256.Int, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		if len(s) == 2 {
			return u256.Int{}, fmt.Errorf("empty hex immediate")
		}
		return safeHex(s)
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return u256.Int{}, fmt.Errorf("bad immediate %q", s)
	}
	return u256.FromUint64(v), nil
}

func safeHex(s string) (v u256.Int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bad hex immediate %q", s)
		}
	}()
	return u256.MustFromHex(s), nil
}
