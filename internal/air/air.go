// Package air defines the algebraic intermediate representation
// interface consumed by the STARK prover: a trace of field-element
// columns constrained by row-local constraints (vanishing on every
// row), transition constraints (vanishing on every row but the last),
// and boundary constraints pinning individual cells to public values.
//
// Constraint evaluators receive the evaluation point x so AIRs can
// implement periodic columns (e.g. round constants with period p as a
// degree-(p-1) polynomial in x^(n/p)).
package air

import (
	"zkflow/internal/field"
	"zkflow/internal/poly"
)

// Boundary pins trace cell (Row, Col) to a public Value.
type Boundary struct {
	Row   int
	Col   int
	Value field.Elem
}

// AIR describes one constrained computation.
//
// EvalLocal and EvalTransition must be safe for concurrent use: the
// STARK prover evaluates the composition polynomial chunk-parallel
// whenever GOMAXPROCS is above 1, calling both from multiple goroutines
// (with distinct out/row slices per goroutine).
type AIR interface {
	// NumColumns is the trace width.
	NumColumns() int
	// NumLocal is the number of row-local constraints.
	NumLocal() int
	// NumTransition is the number of transition constraints.
	NumTransition() int
	// MaxDegree bounds the algebraic degree of any constraint as a
	// polynomial in the trace cells (e.g. 3 for u^2*s terms).
	MaxDegree() int
	// EvalLocal writes the NumLocal row-local constraint values for
	// the row values at point x of a length-n trace.
	EvalLocal(x field.Elem, n int, row []field.Elem, out []field.Elem)
	// EvalTransition writes the NumTransition constraint values for
	// the adjacent rows (curr at x, next at g*x).
	EvalTransition(x field.Elem, n int, curr, next []field.Elem, out []field.Elem)
	// Boundaries lists the public cell constraints for a length-n
	// trace.
	Boundaries(n int) []Boundary
}

// PeriodicPoly precomputes the coefficient form of a periodic column:
// values repeat with period p (a power of two dividing the trace
// length), and the column evaluates as q(x^(n/p)) where q
// interpolates the period over the size-p subgroup. Evaluation costs
// O(p) anywhere in the field — cheap for the verifier.
type PeriodicPoly struct {
	coeffs []field.Elem // one per period row
}

// NewPeriodic builds the polynomial for one period of values
// (len(values) a power of two).
func NewPeriodic(values []field.Elem) PeriodicPoly {
	p := len(values)
	if p == 0 || p&(p-1) != 0 {
		panic("air: period must be a power of two")
	}
	coeffs := make([]field.Elem, p)
	copy(coeffs, values)
	// INTT over the size-p subgroup: values[r] sits at w_p^r, matching
	// the trace row points g^i with x^(n/p) = w_p^i for i ≡ r (mod p)
	// (all roots come from the same 2-adic tower).
	poly.INTT(coeffs)
	return PeriodicPoly{coeffs: coeffs}
}

// Eval evaluates the periodic column at point x of a length-n trace.
func (pp PeriodicPoly) Eval(x field.Elem, n int) field.Elem {
	return pp.EvalWithArg(field.Exp(x, uint64(n/len(pp.coeffs))))
}

// EvalWithArg evaluates given the precomputed argument x^(n/period) —
// callers evaluating many periodic columns at one point compute the
// power once.
func (pp PeriodicPoly) EvalWithArg(arg field.Elem) field.Elem {
	var acc field.Elem
	for i := len(pp.coeffs) - 1; i >= 0; i-- {
		acc = field.Add(field.Mul(acc, arg), pp.coeffs[i])
	}
	return acc
}
