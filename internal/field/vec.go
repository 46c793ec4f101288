// Batch ("vector") kernels over slices of field elements. These are
// the one tuned layer the polynomial/FRI/STARK hot loops call into:
// each loop is unrolled 4-wide so the element loads, the modular
// reductions, and the stores of independent lanes interleave instead
// of serialising behind one chain of branches. All kernels are exact
// field arithmetic — callers get bit-identical results to the scalar
// formulation — and none of them allocates.
package field

// MulVec sets dst[i] = a[i] * b[i]. The slices must have equal
// length; dst may alias a or b.
func MulVec(dst, a, b []Elem) {
	n := len(dst)
	if len(a) != n || len(b) != n {
		panic("field: MulVec length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := Mul(a[i], b[i])
		d1 := Mul(a[i+1], b[i+1])
		d2 := Mul(a[i+2], b[i+2])
		d3 := Mul(a[i+3], b[i+3])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < n; i++ {
		dst[i] = Mul(a[i], b[i])
	}
}

// ScaleVec sets dst[i] = c * a[i]. dst and a must have equal length
// and may alias.
func ScaleVec(dst, a []Elem, c Elem) {
	n := len(dst)
	if len(a) != n {
		panic("field: ScaleVec length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := Mul(c, a[i])
		d1 := Mul(c, a[i+1])
		d2 := Mul(c, a[i+2])
		d3 := Mul(c, a[i+3])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < n; i++ {
		dst[i] = Mul(c, a[i])
	}
}

// SubScalarVec sets dst[i] = a[i] - c (the denominator fill of the
// STARK composition: x_i minus a fixed point). dst and a must have
// equal length and may alias.
func SubScalarVec(dst, a []Elem, c Elem) {
	n := len(dst)
	if len(a) != n {
		panic("field: SubScalarVec length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := Sub(a[i], c)
		d1 := Sub(a[i+1], c)
		d2 := Sub(a[i+2], c)
		d3 := Sub(a[i+3], c)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < n; i++ {
		dst[i] = Sub(a[i], c)
	}
}

// Butterfly is the fused radix-2 NTT primitive: given the pair (u, v)
// and the twiddle w it returns (u + w*v, u - w*v) — one multiply per
// butterfly instead of the textbook multiply-and-advance-the-root
// pair.
func Butterfly(u, v, w Elem) (Elem, Elem) {
	t := Mul(w, v)
	return Add(u, t), Sub(u, t)
}

// Butterflies applies the radix-2 butterfly across the paired slices:
// lo[i], hi[i] = lo[i] + w[i]*hi[i], lo[i] - w[i]*hi[i]. This is the
// whole inner loop of one NTT stage over one block, with the twiddles
// coming from a precomputed table instead of a chained multiply. The
// three slices must have equal length.
func Butterflies(lo, hi, w []Elem) {
	n := len(lo)
	if len(hi) != n || len(w) != n {
		panic("field: Butterflies length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		t0 := Mul(w[i], hi[i])
		t1 := Mul(w[i+1], hi[i+1])
		t2 := Mul(w[i+2], hi[i+2])
		t3 := Mul(w[i+3], hi[i+3])
		u0, u1, u2, u3 := lo[i], lo[i+1], lo[i+2], lo[i+3]
		lo[i], hi[i] = Add(u0, t0), Sub(u0, t0)
		lo[i+1], hi[i+1] = Add(u1, t1), Sub(u1, t1)
		lo[i+2], hi[i+2] = Add(u2, t2), Sub(u2, t2)
		lo[i+3], hi[i+3] = Add(u3, t3), Sub(u3, t3)
	}
	for ; i < n; i++ {
		t := Mul(w[i], hi[i])
		u := lo[i]
		lo[i], hi[i] = Add(u, t), Sub(u, t)
	}
}
