package air

import (
	"testing"

	"zkflow/internal/field"
)

func TestPeriodicMatchesRows(t *testing.T) {
	// A period-8 column over a length-64 trace must evaluate to
	// values[i mod 8] at every trace point g^i.
	values := make([]field.Elem, 8)
	for i := range values {
		values[i] = field.New(uint64(1000 + i*i))
	}
	pp := NewPeriodic(values)
	n := 64
	g := field.RootOfUnity(6)
	x := field.One
	for i := 0; i < n; i++ {
		if got := pp.Eval(x, n); got != values[i%8] {
			t.Fatalf("row %d: got %v, want %v", i, got, values[i%8])
		}
		x = field.Mul(x, g)
	}
}

func TestPeriodicPeriodOne(t *testing.T) {
	pp := NewPeriodic([]field.Elem{field.New(42)})
	if pp.Eval(field.New(12345), 16) != field.New(42) {
		t.Fatal("constant periodic column broken")
	}
}

func TestPeriodicOffDomain(t *testing.T) {
	// Off the trace domain the polynomial is still well-defined and
	// EvalWithArg must agree with Eval.
	values := []field.Elem{field.New(1), field.New(2), field.New(3), field.New(4)}
	pp := NewPeriodic(values)
	x := field.New(987654321)
	n := 32
	arg := field.Exp(x, uint64(n/len(values)))
	if pp.Eval(x, n) != pp.EvalWithArg(arg) {
		t.Fatal("Eval and EvalWithArg disagree")
	}
}

func TestNewPeriodicPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPeriodic(make([]field.Elem, 3))
}
