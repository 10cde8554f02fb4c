// Package u256 implements 256-bit unsigned integer arithmetic with the
// wrapping (mod 2^256) semantics of the Ethereum virtual machine word.
//
// Values are represented as four little-endian 64-bit limbs and are plain
// value types: copying an Int copies the number. Addition, subtraction,
// multiplication, comparisons, bit operations and shifts are implemented
// natively on the limbs; the division family delegates to math/big, which
// keeps the hot EVM paths allocation-free while staying obviously correct
// for the rare DIV/MOD/EXP opcodes.
package u256

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Int is an unsigned 256-bit integer: limbs[0] is the least significant word.
type Int struct {
	limbs [4]uint64
}

// Common constants. These are returned by value; callers cannot mutate them.
var (
	zero = Int{}
	one  = Int{limbs: [4]uint64{1, 0, 0, 0}}
)

// Zero returns the value 0.
func Zero() Int { return zero }

// One returns the value 1.
func One() Int { return one }

// FromUint64 returns v as a 256-bit integer.
func FromUint64(v uint64) Int {
	return Int{limbs: [4]uint64{v, 0, 0, 0}}
}

// FromLimbs builds an Int from little-endian 64-bit limbs.
func FromLimbs(l0, l1, l2, l3 uint64) Int {
	return Int{limbs: [4]uint64{l0, l1, l2, l3}}
}

// FromBig converts b mod 2^256 to an Int. Negative values are taken in
// two's complement, matching EVM semantics for signed pushes.
func FromBig(b *big.Int) Int {
	var x Int
	abs := new(big.Int).Abs(b)
	words := abs.Bits()
	for i := 0; i < len(words) && i < 4; i++ {
		x.limbs[i] = uint64(words[i])
	}
	if b.Sign() < 0 {
		x = x.Neg()
	}
	return x
}

// FromBytes interprets b as a big-endian unsigned integer, using at most the
// last 32 bytes.
func FromBytes(b []byte) Int {
	if len(b) > 32 {
		b = b[len(b)-32:]
	}
	var buf [32]byte
	copy(buf[32-len(b):], b)
	var x Int
	x.limbs[3] = binary.BigEndian.Uint64(buf[0:8])
	x.limbs[2] = binary.BigEndian.Uint64(buf[8:16])
	x.limbs[1] = binary.BigEndian.Uint64(buf[16:24])
	x.limbs[0] = binary.BigEndian.Uint64(buf[24:32])
	return x
}

// MustFromHex parses a 0x-prefixed or bare hexadecimal string. It panics on
// malformed input and is intended for constants in tests and genesis config.
func MustFromHex(s string) Int {
	b, ok := new(big.Int).SetString(trimHexPrefix(s), 16)
	if !ok {
		panic(fmt.Sprintf("u256: invalid hex %q", s))
	}
	if b.Sign() < 0 || b.BitLen() > 256 {
		panic(fmt.Sprintf("u256: hex out of range %q", s))
	}
	return FromBig(b)
}

func trimHexPrefix(s string) string {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		return s[2:]
	}
	return s
}

// Bytes32 returns the big-endian 32-byte encoding of x.
func (x Int) Bytes32() [32]byte {
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[0:8], x.limbs[3])
	binary.BigEndian.PutUint64(buf[8:16], x.limbs[2])
	binary.BigEndian.PutUint64(buf[16:24], x.limbs[1])
	binary.BigEndian.PutUint64(buf[24:32], x.limbs[0])
	return buf
}

// Bytes returns the minimal big-endian encoding of x (empty for zero).
func (x Int) Bytes() []byte {
	full := x.Bytes32()
	i := 0
	for i < 32 && full[i] == 0 {
		i++
	}
	out := make([]byte, 32-i)
	copy(out, full[i:])
	return out
}

// Big returns x as a math/big integer.
func (x Int) Big() *big.Int {
	buf := x.Bytes32()
	return new(big.Int).SetBytes(buf[:])
}

// Uint64 returns the low 64 bits of x.
func (x Int) Uint64() uint64 { return x.limbs[0] }

// IsUint64 reports whether x fits in a uint64.
func (x Int) IsUint64() bool {
	return x.limbs[1] == 0 && x.limbs[2] == 0 && x.limbs[3] == 0
}

// IsZero reports whether x == 0.
func (x Int) IsZero() bool {
	return x.limbs[0]|x.limbs[1]|x.limbs[2]|x.limbs[3] == 0
}

// IsNegative reports whether x is negative under two's-complement
// interpretation (bit 255 set).
func (x Int) IsNegative() bool { return x.limbs[3]&(1<<63) != 0 }

// String formats x as 0x-prefixed lowercase hex without leading zeros.
func (x Int) String() string { return "0x" + x.Big().Text(16) }

// Eq reports x == y.
func (x Int) Eq(y Int) bool { return x.limbs == y.limbs }

// Cmp returns -1, 0 or +1 comparing x and y as unsigned integers.
func (x Int) Cmp(y Int) int {
	for i := 3; i >= 0; i-- {
		switch {
		case x.limbs[i] < y.limbs[i]:
			return -1
		case x.limbs[i] > y.limbs[i]:
			return 1
		}
	}
	return 0
}

// Lt reports x < y (unsigned).
func (x Int) Lt(y Int) bool { return x.Cmp(y) < 0 }

// Gt reports x > y (unsigned).
func (x Int) Gt(y Int) bool { return x.Cmp(y) > 0 }

// Scmp returns -1, 0 or +1 comparing x and y as signed two's-complement.
func (x Int) Scmp(y Int) int {
	xNeg, yNeg := x.IsNegative(), y.IsNegative()
	switch {
	case xNeg && !yNeg:
		return -1
	case !xNeg && yNeg:
		return 1
	default:
		return x.Cmp(y)
	}
}

// Slt reports x < y (signed).
func (x Int) Slt(y Int) bool { return x.Scmp(y) < 0 }

// Sgt reports x > y (signed).
func (x Int) Sgt(y Int) bool { return x.Scmp(y) > 0 }

// Add returns x + y mod 2^256.
func (x Int) Add(y Int) Int {
	var (
		z Int
		c uint64
	)
	z.limbs[0], c = bits.Add64(x.limbs[0], y.limbs[0], 0)
	z.limbs[1], c = bits.Add64(x.limbs[1], y.limbs[1], c)
	z.limbs[2], c = bits.Add64(x.limbs[2], y.limbs[2], c)
	z.limbs[3], _ = bits.Add64(x.limbs[3], y.limbs[3], c)
	return z
}

// AddOverflow returns x + y mod 2^256 and whether the addition wrapped.
func (x Int) AddOverflow(y Int) (Int, bool) {
	var (
		z Int
		c uint64
	)
	z.limbs[0], c = bits.Add64(x.limbs[0], y.limbs[0], 0)
	z.limbs[1], c = bits.Add64(x.limbs[1], y.limbs[1], c)
	z.limbs[2], c = bits.Add64(x.limbs[2], y.limbs[2], c)
	z.limbs[3], c = bits.Add64(x.limbs[3], y.limbs[3], c)
	return z, c != 0
}

// Sub returns x - y mod 2^256.
func (x Int) Sub(y Int) Int {
	var (
		z Int
		b uint64
	)
	z.limbs[0], b = bits.Sub64(x.limbs[0], y.limbs[0], 0)
	z.limbs[1], b = bits.Sub64(x.limbs[1], y.limbs[1], b)
	z.limbs[2], b = bits.Sub64(x.limbs[2], y.limbs[2], b)
	z.limbs[3], _ = bits.Sub64(x.limbs[3], y.limbs[3], b)
	return z
}

// SubUnderflow returns x - y mod 2^256 and whether the subtraction borrowed.
func (x Int) SubUnderflow(y Int) (Int, bool) {
	var (
		z Int
		b uint64
	)
	z.limbs[0], b = bits.Sub64(x.limbs[0], y.limbs[0], 0)
	z.limbs[1], b = bits.Sub64(x.limbs[1], y.limbs[1], b)
	z.limbs[2], b = bits.Sub64(x.limbs[2], y.limbs[2], b)
	z.limbs[3], b = bits.Sub64(x.limbs[3], y.limbs[3], b)
	return z, b != 0
}

// Neg returns -x mod 2^256 (two's complement).
func (x Int) Neg() Int { return zero.Sub(x) }

// Mul returns x * y mod 2^256 using schoolbook limb multiplication with a
// 128-bit running carry per row (acc + x_i*y_j + carry always fits 128 bits).
func (x Int) Mul(y Int) Int {
	var z Int
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; i+j < 4; j++ {
			z.limbs[i+j], carry = mulStep(z.limbs[i+j], x.limbs[i], y.limbs[j], carry)
		}
	}
	return z
}

// mulStep computes acc + xi*yj + carryIn, returning the low 64 bits and the
// carry into the next limb. The total is at most 2^128 - 1, so it is exact.
func mulStep(acc, xi, yj, carryIn uint64) (lo, carryOut uint64) {
	hi, lo := bits.Mul64(xi, yj)
	var c uint64
	lo, c = bits.Add64(lo, acc, 0)
	hi += c
	lo, c = bits.Add64(lo, carryIn, 0)
	hi += c
	return lo, hi
}

// Div returns x / y (unsigned), or 0 when y == 0, matching EVM DIV.
func (x Int) Div(y Int) Int {
	if y.IsZero() {
		return zero
	}
	return FromBig(new(big.Int).Div(x.Big(), y.Big()))
}

// Mod returns x % y (unsigned), or 0 when y == 0, matching EVM MOD.
func (x Int) Mod(y Int) Int {
	if y.IsZero() {
		return zero
	}
	return FromBig(new(big.Int).Mod(x.Big(), y.Big()))
}

// SDiv returns x / y under signed two's-complement semantics (EVM SDIV).
func (x Int) SDiv(y Int) Int {
	if y.IsZero() {
		return zero
	}
	xb, yb := x.SignedBig(), y.SignedBig()
	return FromBig(new(big.Int).Quo(xb, yb))
}

// SMod returns x % y under signed semantics (EVM SMOD; result takes the
// sign of the dividend).
func (x Int) SMod(y Int) Int {
	if y.IsZero() {
		return zero
	}
	xb, yb := x.SignedBig(), y.SignedBig()
	return FromBig(new(big.Int).Rem(xb, yb))
}

// SignedBig returns x interpreted as a signed two's-complement integer.
func (x Int) SignedBig() *big.Int {
	b := x.Big()
	if x.IsNegative() {
		max := new(big.Int).Lsh(big.NewInt(1), 256)
		b.Sub(b, max)
	}
	return b
}

// AddMod returns (x + y) % m with 257-bit intermediate precision (EVM ADDMOD).
func (x Int) AddMod(y, m Int) Int {
	if m.IsZero() {
		return zero
	}
	s := new(big.Int).Add(x.Big(), y.Big())
	return FromBig(s.Mod(s, m.Big()))
}

// MulMod returns (x * y) % m with 512-bit intermediate precision (EVM MULMOD).
func (x Int) MulMod(y, m Int) Int {
	if m.IsZero() {
		return zero
	}
	p := new(big.Int).Mul(x.Big(), y.Big())
	return FromBig(p.Mod(p, m.Big()))
}

// Exp returns x**y mod 2^256 (EVM EXP).
func (x Int) Exp(y Int) Int {
	result := one
	base := x
	for i := 0; i < 256; i++ {
		limb := y.limbs[i/64]
		if limb&(1<<(uint(i)%64)) != 0 {
			result = result.Mul(base)
		}
		// Skip squaring once no higher bits remain.
		if allHigherBitsZero(y, i) {
			break
		}
		base = base.Mul(base)
	}
	return result
}

func allHigherBitsZero(y Int, bit int) bool {
	limb := bit / 64
	inLimb := uint(bit) % 64
	if y.limbs[limb]>>inLimb>>1 != 0 {
		return false
	}
	for i := limb + 1; i < 4; i++ {
		if y.limbs[i] != 0 {
			return false
		}
	}
	return true
}

// SignExtend implements EVM SIGNEXTEND: extends the sign bit of the byte at
// index k (0 = least significant) through the higher bytes.
func (x Int) SignExtend(k Int) Int {
	if !k.IsUint64() || k.Uint64() >= 31 {
		return x
	}
	byteIndex := k.Uint64() // 0..30
	bitIndex := byteIndex*8 + 7
	signSet := x.Bit(int(bitIndex)) == 1
	var z Int
	for i := 0; i < 256; i++ {
		var b uint
		if uint64(i) <= bitIndex {
			b = x.Bit(i)
		} else if signSet {
			b = 1
		}
		if b == 1 {
			z.limbs[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return z
}

// Bit returns bit i of x (0 or 1). Out-of-range bits are 0.
func (x Int) Bit(i int) uint {
	if i < 0 || i > 255 {
		return 0
	}
	return uint(x.limbs[i/64]>>(uint(i)%64)) & 1
}

// BitLen returns the number of bits required to represent x.
func (x Int) BitLen() int {
	for i := 3; i >= 0; i-- {
		if x.limbs[i] != 0 {
			return i*64 + bits.Len64(x.limbs[i])
		}
	}
	return 0
}

// And returns x & y.
func (x Int) And(y Int) Int {
	return Int{limbs: [4]uint64{
		x.limbs[0] & y.limbs[0], x.limbs[1] & y.limbs[1],
		x.limbs[2] & y.limbs[2], x.limbs[3] & y.limbs[3],
	}}
}

// Or returns x | y.
func (x Int) Or(y Int) Int {
	return Int{limbs: [4]uint64{
		x.limbs[0] | y.limbs[0], x.limbs[1] | y.limbs[1],
		x.limbs[2] | y.limbs[2], x.limbs[3] | y.limbs[3],
	}}
}

// Xor returns x ^ y.
func (x Int) Xor(y Int) Int {
	return Int{limbs: [4]uint64{
		x.limbs[0] ^ y.limbs[0], x.limbs[1] ^ y.limbs[1],
		x.limbs[2] ^ y.limbs[2], x.limbs[3] ^ y.limbs[3],
	}}
}

// Not returns ^x (bitwise complement).
func (x Int) Not() Int {
	return Int{limbs: [4]uint64{
		^x.limbs[0], ^x.limbs[1], ^x.limbs[2], ^x.limbs[3],
	}}
}

// Byte implements EVM BYTE: returns the i-th byte of x counting from the
// most significant (i = 0) as a word; i >= 32 yields 0.
func (x Int) Byte(i Int) Int {
	if !i.IsUint64() || i.Uint64() >= 32 {
		return zero
	}
	buf := x.Bytes32()
	return FromUint64(uint64(buf[i.Uint64()]))
}

// Shl returns x << n (n as unsigned; n >= 256 yields 0).
func (x Int) Shl(n Int) Int {
	if !n.IsUint64() || n.Uint64() >= 256 {
		return zero
	}
	return x.shlUint(uint(n.Uint64()))
}

func (x Int) shlUint(n uint) Int {
	if n == 0 {
		return x
	}
	var z Int
	limbShift := n / 64
	bitShift := n % 64
	for i := 3; i >= int(limbShift); i-- {
		z.limbs[i] = x.limbs[i-int(limbShift)] << bitShift
		if bitShift > 0 && i-int(limbShift)-1 >= 0 {
			z.limbs[i] |= x.limbs[i-int(limbShift)-1] >> (64 - bitShift)
		}
	}
	return z
}

// Shr returns x >> n logically (n >= 256 yields 0).
func (x Int) Shr(n Int) Int {
	if !n.IsUint64() || n.Uint64() >= 256 {
		return zero
	}
	return x.shrUint(uint(n.Uint64()))
}

func (x Int) shrUint(n uint) Int {
	if n == 0 {
		return x
	}
	var z Int
	limbShift := n / 64
	bitShift := n % 64
	for i := 0; i < 4-int(limbShift); i++ {
		z.limbs[i] = x.limbs[i+int(limbShift)] >> bitShift
		if bitShift > 0 && i+int(limbShift)+1 < 4 {
			z.limbs[i] |= x.limbs[i+int(limbShift)+1] << (64 - bitShift)
		}
	}
	return z
}

// Sar returns x >> n arithmetically (sign-propagating; EVM SAR).
func (x Int) Sar(n Int) Int {
	neg := x.IsNegative()
	if !n.IsUint64() || n.Uint64() >= 256 {
		if neg {
			return zero.Not() // all ones
		}
		return zero
	}
	shift := uint(n.Uint64())
	z := x.shrUint(shift)
	if neg && shift > 0 {
		// Fill the vacated high bits with ones.
		mask := zero.Not().shlUint(256 - shift)
		z = z.Or(mask)
	}
	return z
}
