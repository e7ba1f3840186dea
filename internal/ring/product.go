package ring

// PairVal is an element of a product ring: a pair of payloads maintained
// simultaneously.
type PairVal[A, B any] struct {
	A A
	B B
}

// Product is the component-wise product of two rings: (a,b) + (a',b') =
// (a+a', b+b') and likewise for multiplication. It lets one view tree
// maintain two different analytics in a single pass — for example a COUNT
// alongside a cofactor triple, or a scalar aggregate alongside a relational
// payload — sharing all key-side computation, in the spirit of the paper's
// compound aggregates.
type Product[A, B any] struct {
	RA Ring[A]
	RB Ring[B]
}

// NewProduct builds the product of two rings.
func NewProduct[A, B any](ra Ring[A], rb Ring[B]) Product[A, B] {
	return Product[A, B]{RA: ra, RB: rb}
}

// Zero returns (0, 0).
func (r Product[A, B]) Zero() PairVal[A, B] {
	return PairVal[A, B]{A: r.RA.Zero(), B: r.RB.Zero()}
}

// One returns (1, 1).
func (r Product[A, B]) One() PairVal[A, B] {
	return PairVal[A, B]{A: r.RA.One(), B: r.RB.One()}
}

// Add adds component-wise.
func (r Product[A, B]) Add(a, b PairVal[A, B]) PairVal[A, B] {
	return PairVal[A, B]{A: r.RA.Add(a.A, b.A), B: r.RB.Add(a.B, b.B)}
}

// Neg negates component-wise.
func (r Product[A, B]) Neg(a PairVal[A, B]) PairVal[A, B] {
	return PairVal[A, B]{A: r.RA.Neg(a.A), B: r.RB.Neg(a.B)}
}

// Mul multiplies component-wise.
func (r Product[A, B]) Mul(a, b PairVal[A, B]) PairVal[A, B] {
	return PairVal[A, B]{A: r.RA.Mul(a.A, b.A), B: r.RB.Mul(a.B, b.B)}
}

// IsZero reports whether both components are zero.
func (r Product[A, B]) IsZero(a PairVal[A, B]) bool {
	return r.RA.IsZero(a.A) && r.RB.IsZero(a.B)
}

// AddInto accumulates component-wise.
func (r Product[A, B]) AddInto(dst *PairVal[A, B], src PairVal[A, B]) {
	r.RA.AddInto(&dst.A, src.A)
	r.RB.AddInto(&dst.B, src.B)
}

// MulInto sets *dst = a * b component-wise.
func (r Product[A, B]) MulInto(dst, a, b *PairVal[A, B]) {
	r.RA.MulInto(&dst.A, &a.A, &b.A)
	r.RB.MulInto(&dst.B, &a.B, &b.B)
}

// MulAddInto accumulates *dst += a * b component-wise.
func (r Product[A, B]) MulAddInto(dst, a, b *PairVal[A, B]) {
	r.RA.MulAddInto(&dst.A, &a.A, &b.A)
	r.RB.MulAddInto(&dst.B, &a.B, &b.B)
}

// CopyInto sets *dst = src component-wise, each component copied as its
// ring's CopyInto does.
func (r Product[A, B]) CopyInto(dst *PairVal[A, B], src PairVal[A, B]) {
	r.RA.CopyInto(&dst.A, src.A)
	r.RB.CopyInto(&dst.B, src.B)
}

// IsOne reports whether both components are their rings' identities.
func (r Product[A, B]) IsOne(a *PairVal[A, B]) bool {
	return r.RA.IsOne(&a.A) && r.RB.IsOne(&a.B)
}

// AddIntoRef accumulates component-wise with pointer sources.
func (r Product[A, B]) AddIntoRef(dst, src *PairVal[A, B]) {
	r.RA.AddIntoRef(&dst.A, &src.A)
	r.RB.AddIntoRef(&dst.B, &src.B)
}

// CopyIntoRef sets *dst = *src component-wise with pointer sources.
func (r Product[A, B]) CopyIntoRef(dst, src *PairVal[A, B]) {
	r.RA.CopyIntoRef(&dst.A, &src.A)
	r.RB.CopyIntoRef(&dst.B, &src.B)
}

// IsZeroRef reports whether both components are zero, reading through the
// pointer to avoid copying wide payloads.
func (r Product[A, B]) IsZeroRef(p *PairVal[A, B]) bool {
	return r.RA.IsZeroRef(&p.A) && r.RB.IsZeroRef(&p.B)
}

// Bytes sums the component footprints.
func (r Product[A, B]) Bytes(a PairVal[A, B]) int {
	return 16 + r.RA.Bytes(a.A) + r.RB.Bytes(a.B)
}
