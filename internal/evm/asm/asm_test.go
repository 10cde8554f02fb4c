package asm

import (
	"bytes"
	"testing"

	"scmove/internal/evm"
)

func TestAssembleBasics(t *testing.T) {
	code, err := Assemble(`
		PUSH1 0x05 ; five
		PUSH1 3
		ADD
		STOP
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(evm.PUSH1), 5, byte(evm.PUSH1), 3, byte(evm.ADD), byte(evm.STOP)}
	if !bytes.Equal(code, want) {
		t.Fatalf("code = %x, want %x", code, want)
	}
}

func TestAssembleWidePush(t *testing.T) {
	code, err := Assemble("PUSH20 0xdd00000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 21 || code[0] != byte(evm.Push(20)) || code[1] != 0xdd {
		t.Fatalf("code = %x", code)
	}
}

func TestImmediateTooWideRejected(t *testing.T) {
	if _, err := Assemble("PUSH1 0x1ff"); err == nil {
		t.Fatal("immediate wider than push size must be rejected")
	}
}

func TestLabelsResolve(t *testing.T) {
	code, err := Assemble(`
	@start:
		JUMPDEST
		PUSH @start
		JUMP
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(evm.JUMPDEST), byte(evm.Push(2)), 0, 0, byte(evm.JUMP)}
	if !bytes.Equal(code, want) {
		t.Fatalf("code = %x, want %x", code, want)
	}
}

func TestForwardLabel(t *testing.T) {
	code, err := Assemble(`
		PUSH @end
		JUMP
		STOP
	@end:
		JUMPDEST
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: PUSH2(3) JUMP(1) STOP(1) JUMPDEST@5.
	if code[1] != 0 || code[2] != 5 {
		t.Fatalf("label target = %x", code[1:3])
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown mnemonic", "FROBNICATE"},
		{"missing immediate", "PUSH1"},
		{"bad immediate", "PUSH1 zork"},
		{"bad hex", "PUSH1 0xzz"},
		{"undefined label", "PUSH @nowhere JUMP"},
		{"duplicate label", "@a: @a: STOP"},
		{"bad label form", "name: STOP"},
		{"bare push without label", "PUSH 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Assemble(tc.src); err == nil {
				t.Fatalf("source %q must not assemble", tc.src)
			}
		})
	}
}

func TestCaseInsensitiveMnemonics(t *testing.T) {
	a := MustAssemble("push1 1 add stop")
	b := MustAssemble("PUSH1 1 ADD STOP")
	if !bytes.Equal(a, b) {
		t.Fatal("mnemonics must be case-insensitive")
	}
}
