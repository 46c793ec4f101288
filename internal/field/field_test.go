package field

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModulusShape(t *testing.T) {
	// p = 2^64 - 2^32 + 1
	want := uint64(1)<<32 - 1
	if ^Modulus != want-1 {
		t.Fatalf("modulus mismatch: %x", Modulus)
	}
}

func TestNewReduces(t *testing.T) {
	if New(Modulus) != 0 {
		t.Errorf("New(p) = %v, want 0", New(Modulus))
	}
	if New(Modulus+5) != 5 {
		t.Errorf("New(p+5) = %v, want 5", New(Modulus+5))
	}
	if New(42) != 42 {
		t.Errorf("New(42) = %v", New(42))
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		return Sub(Add(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		return Add(New(a), New(b)) == Add(New(b), New(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		return Mul(New(a), New(b)) == Mul(New(b), New(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulDistributes(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		return Mul(Mul(x, y), z) == Mul(x, Mul(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulKnownVectors(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 1, 1},
		{Modulus - 1, Modulus - 1, 1},           // (-1)^2 = 1
		{Modulus - 1, 2, Modulus - 2},           // -2
		{1 << 32, 1 << 32, 0xffffffff},          // 2^64 mod p = 2^32 - 1
		{1 << 48, 1 << 48, Modulus - (1 << 32)}, // 2^96 mod p = p - 2^32... check below
	}
	// 2^96 ≡ -1 (mod p), so 2^96 mod p = p - 1.
	cases[5].want = Modulus - 1
	for _, c := range cases {
		if got := Mul(New(c.a), New(c.b)); uint64(got) != c.want {
			t.Errorf("Mul(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestReduce128MatchesBig checks Reduce128 against big-integer
// reduction over the whole 128-bit range, extremes included.
func TestReduce128MatchesBig(t *testing.T) {
	p := new(big.Int).SetUint64(Modulus)
	check := func(hi, lo uint64) bool {
		x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		x.Or(x, new(big.Int).SetUint64(lo))
		return uint64(Reduce128(hi, lo)) == x.Mod(x, p).Uint64()
	}
	edges := []uint64{0, 1, 0xffffffff, 1 << 32, Modulus - 1, Modulus, ^uint64(0)}
	for _, hi := range edges {
		for _, lo := range edges {
			if !check(hi, lo) {
				t.Fatalf("Reduce128(%#x, %#x) = %d", hi, lo, Reduce128(hi, lo))
			}
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeg(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		return Add(x, Neg(x)) == Zero
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInv(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		if x == 0 {
			return Inv(x) == 0
		}
		return Mul(x, Inv(x)) == One
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExp(t *testing.T) {
	if Exp(New(3), 0) != One {
		t.Error("x^0 != 1")
	}
	if Exp(New(3), 1) != New(3) {
		t.Error("x^1 != x")
	}
	if Exp(New(3), 5) != New(243) {
		t.Errorf("3^5 = %v, want 243", Exp(New(3), 5))
	}
	// Fermat: a^(p-1) = 1 for a != 0.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := New(rng.Uint64())
		if a == 0 {
			continue
		}
		if Exp(a, Modulus-1) != One {
			t.Fatalf("Fermat failed for %v", a)
		}
	}
}

func TestBatchInv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]Elem, 257)
	want := make([]Elem, len(xs))
	for i := range xs {
		if i%17 == 0 {
			xs[i] = 0 // sprinkle zeros
		} else {
			xs[i] = New(rng.Uint64())
		}
		want[i] = Inv(xs[i])
	}
	BatchInv(xs)
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("BatchInv[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

func TestBatchInvEmpty(t *testing.T) {
	BatchInv(nil) // must not panic
	BatchInv([]Elem{})
}

func TestRootOfUnity(t *testing.T) {
	for logN := 0; logN <= 16; logN++ {
		w := RootOfUnity(logN)
		n := uint64(1) << logN
		if Exp(w, n) != One {
			t.Fatalf("w^(2^%d) != 1", logN)
		}
		if logN > 0 && Exp(w, n/2) == One {
			t.Fatalf("root of order 2^%d is not primitive", logN)
		}
	}
}

func TestRootOfUnityMax(t *testing.T) {
	w := RootOfUnity(TwoAdicity)
	if Exp(w, 1<<31) == One {
		t.Fatal("2^32 root not primitive")
	}
}

func TestRootOfUnityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for excessive two-adicity")
		}
	}()
	RootOfUnity(TwoAdicity + 1)
}

func TestPow7(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		return Pow7(x) == Exp(x, 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := New(0x123456789abcdef0), New(0xfedcba9876543210)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	_ = x
}

func BenchmarkAdd(b *testing.B) {
	x, y := New(0x123456789abcdef0), New(0xfedcba9876543210)
	for i := 0; i < b.N; i++ {
		x = Add(x, y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	x := New(0x123456789abcdef0)
	for i := 0; i < b.N; i++ {
		x = Inv(x)
	}
	_ = x
}
