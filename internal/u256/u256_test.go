package u256

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

func modBig(b *big.Int) *big.Int { return new(big.Int).Mod(b, two256) }

// randInt draws a 256-bit integer biased towards interesting shapes:
// small values, values near 2^256, and single-limb patterns.
func randInt(r *rand.Rand) Int {
	switch r.Intn(5) {
	case 0:
		return FromUint64(r.Uint64() % 1024)
	case 1:
		return zero.Not().Sub(FromUint64(r.Uint64() % 1024)) // near max
	case 2:
		return FromUint64(1).Shl(FromUint64(r.Uint64() % 256))
	default:
		return FromLimbs(r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
	}
}

// Generate lets testing/quick draw random Ints.
func (Int) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randInt(r))
}

func TestRoundTripBig(t *testing.T) {
	f := func(x Int) bool { return FromBig(x.Big()).Eq(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripBytes(t *testing.T) {
	f := func(x Int) bool {
		buf := x.Bytes32()
		return FromBytes(buf[:]).Eq(x) && FromBytes(x.Bytes()).Eq(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddMatchesBig(t *testing.T) {
	f := func(x, y Int) bool {
		want := modBig(new(big.Int).Add(x.Big(), y.Big()))
		return x.Add(y).Big().Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatchesBig(t *testing.T) {
	f := func(x, y Int) bool {
		want := modBig(new(big.Int).Sub(x.Big(), y.Big()))
		return x.Sub(y).Big().Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulMatchesBig(t *testing.T) {
	f := func(x, y Int) bool {
		want := modBig(new(big.Int).Mul(x.Big(), y.Big()))
		return x.Mul(y).Big().Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivModMatchesBig(t *testing.T) {
	f := func(x, y Int) bool {
		if y.IsZero() {
			return x.Div(y).IsZero() && x.Mod(y).IsZero()
		}
		wantQ := new(big.Int).Div(x.Big(), y.Big())
		wantR := new(big.Int).Mod(x.Big(), y.Big())
		return x.Div(y).Big().Cmp(wantQ) == 0 && x.Mod(y).Big().Cmp(wantR) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivModIdentity(t *testing.T) {
	// x == (x/y)*y + x%y whenever y != 0.
	f := func(x, y Int) bool {
		if y.IsZero() {
			return true
		}
		return x.Div(y).Mul(y).Add(x.Mod(y)).Eq(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignedDivRem(t *testing.T) {
	cases := []struct {
		x, y, div, mod string
	}{
		{"0x0a", "0x03", "0x3", "0x1"},
		// -10 / 3 == -3, rem -1.
		{negHex(10), "0x03", negHexVal(3), negHexVal(1)},
		// 10 / -3 == -3, rem 1.
		{"0x0a", negHex(3), negHexVal(3), "0x1"},
		// -10 / -3 == 3, rem -1.
		{negHex(10), negHex(3), "0x3", negHexVal(1)},
	}
	for _, tc := range cases {
		x, y := MustFromHex(tc.x), MustFromHex(tc.y)
		if got := x.SDiv(y); got.String() != MustFromHex(tc.div).String() {
			t.Errorf("SDiv(%s,%s) = %s, want %s", tc.x, tc.y, got, tc.div)
		}
		if got := x.SMod(y); got.String() != MustFromHex(tc.mod).String() {
			t.Errorf("SMod(%s,%s) = %s, want %s", tc.x, tc.y, got, tc.mod)
		}
	}
}

func negHex(v uint64) string { return FromUint64(v).Neg().String() }

func negHexVal(v uint64) string { return FromUint64(v).Neg().String() }

func TestExpMatchesBig(t *testing.T) {
	f := func(x Int, e uint16) bool {
		y := FromUint64(uint64(e % 300))
		want := new(big.Int).Exp(x.Big(), y.Big(), two256)
		return x.Exp(y).Big().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExpLargeExponent(t *testing.T) {
	x := FromUint64(3)
	y := zero.Not() // 2^256 - 1
	want := new(big.Int).Exp(x.Big(), y.Big(), two256)
	if got := x.Exp(y); got.Big().Cmp(want) != 0 {
		t.Fatalf("Exp(3, max) = %s, want %s", got, want.Text(16))
	}
}

func TestShiftsMatchBig(t *testing.T) {
	f := func(x Int, nRaw uint16) bool {
		n := uint(nRaw % 300)
		nInt := FromUint64(uint64(n))
		wantShl := modBig(new(big.Int).Lsh(x.Big(), n))
		wantShr := new(big.Int).Rsh(x.Big(), n)
		if x.Shl(nInt).Big().Cmp(wantShl) != 0 {
			return false
		}
		return x.Shr(nInt).Big().Cmp(wantShr) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSar(t *testing.T) {
	minusOne := zero.Not()
	if got := minusOne.Sar(FromUint64(5)); !got.Eq(minusOne) {
		t.Errorf("Sar(-1, 5) = %s, want -1", got)
	}
	if got := minusOne.Sar(FromUint64(999)); !got.Eq(minusOne) {
		t.Errorf("Sar(-1, 999) = %s, want -1", got)
	}
	if got := FromUint64(64).Sar(FromUint64(2)); !got.Eq(FromUint64(16)) {
		t.Errorf("Sar(64, 2) = %s, want 16", got)
	}
	minus8 := FromUint64(8).Neg()
	if got := minus8.Sar(FromUint64(1)); !got.Eq(FromUint64(4).Neg()) {
		t.Errorf("Sar(-8, 1) = %s, want -4", got)
	}
	if got := FromUint64(7).Sar(FromUint64(999)); !got.IsZero() {
		t.Errorf("Sar(7, 999) = %s, want 0", got)
	}
}

func TestSarMatchesBigSigned(t *testing.T) {
	f := func(x Int, nRaw uint8) bool {
		n := uint(nRaw) % 260
		want := new(big.Int).Rsh(x.SignedBig(), n)
		return x.Sar(FromUint64(uint64(n))).SignedBig().Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignExtend(t *testing.T) {
	// 0xff extended at byte 0 becomes -1.
	x := FromUint64(0xff)
	if got := x.SignExtend(FromUint64(0)); !got.Eq(zero.Not()) {
		t.Errorf("SignExtend(0xff, 0) = %s, want -1", got)
	}
	// 0x7f stays 0x7f.
	if got := FromUint64(0x7f).SignExtend(FromUint64(0)); !got.Eq(FromUint64(0x7f)) {
		t.Errorf("SignExtend(0x7f, 0) = %s", got)
	}
	// k >= 31 is identity.
	big := MustFromHex("0x8000000000000000000000000000000000000000000000000000000000000001")
	if got := big.SignExtend(FromUint64(31)); !got.Eq(big) {
		t.Errorf("SignExtend(x, 31) = %s, want x", got)
	}
}

func TestByte(t *testing.T) {
	x := MustFromHex("0x0102030405060708091011121314151617181920212223242526272829303132")
	if got := x.Byte(FromUint64(0)); !got.Eq(FromUint64(0x01)) {
		t.Errorf("Byte(0) = %s", got)
	}
	if got := x.Byte(FromUint64(31)); !got.Eq(FromUint64(0x32)) {
		t.Errorf("Byte(31) = %s", got)
	}
	if got := x.Byte(FromUint64(32)); !got.IsZero() {
		t.Errorf("Byte(32) = %s, want 0", got)
	}
}

func TestAddModMulMod(t *testing.T) {
	f := func(x, y, m Int) bool {
		if m.IsZero() {
			return x.AddMod(y, m).IsZero() && x.MulMod(y, m).IsZero()
		}
		wantAdd := new(big.Int).Add(x.Big(), y.Big())
		wantAdd.Mod(wantAdd, m.Big())
		wantMul := new(big.Int).Mul(x.Big(), y.Big())
		wantMul.Mod(wantMul, m.Big())
		return x.AddMod(y, m).Big().Cmp(wantAdd) == 0 &&
			x.MulMod(y, m).Big().Cmp(wantMul) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	f := func(x, y Int) bool {
		bx, by := x.Big(), y.Big()
		if (x.Cmp(y) < 0) != (bx.Cmp(by) < 0) {
			return false
		}
		sx, sy := x.SignedBig(), y.SignedBig()
		return (x.Slt(y) == (sx.Cmp(sy) < 0)) && (x.Sgt(y) == (sx.Cmp(sy) > 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitwiseMatchesBig(t *testing.T) {
	f := func(x, y Int) bool {
		and := new(big.Int).And(x.Big(), y.Big())
		or := new(big.Int).Or(x.Big(), y.Big())
		xor := new(big.Int).Xor(x.Big(), y.Big())
		return x.And(y).Big().Cmp(and) == 0 &&
			x.Or(y).Big().Cmp(or) == 0 &&
			x.Xor(y).Big().Cmp(xor) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotInvolution(t *testing.T) {
	f := func(x Int) bool { return x.Not().Not().Eq(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegTwosComplement(t *testing.T) {
	f := func(x Int) bool { return x.Add(x.Neg()).IsZero() }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitLen(t *testing.T) {
	if got := Zero().BitLen(); got != 0 {
		t.Errorf("BitLen(0) = %d", got)
	}
	if got := FromUint64(255).BitLen(); got != 8 {
		t.Errorf("BitLen(255) = %d", got)
	}
	if got := One().Shl(FromUint64(200)).BitLen(); got != 201 {
		t.Errorf("BitLen(1<<200) = %d", got)
	}
}

func TestMustFromHexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid hex")
		}
	}()
	MustFromHex("0xzz")
}

func TestStringParsesBack(t *testing.T) {
	f := func(x Int) bool { return MustFromHex(x.String()).Eq(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
