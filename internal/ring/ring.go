// Package ring defines the payload algebra used by F-IVM.
//
// In F-IVM, a relation maps keys (tuples of data values) to payloads, which
// are elements of a task-specific ring (D, +, *, 0, 1). The computation over
// keys — joins, unions, marginalization — is identical for all tasks; tasks
// differ only in the choice of ring and of the lifting functions that map key
// values into the ring. This package provides the ring abstraction and the
// concrete rings used by the paper's applications:
//
//   - Int and Float: the Z and R rings for COUNT/SUM-style aggregates.
//   - Cofactor: the degree-m matrix ring of (count, sum-vector, cofactor
//     matrix) triples used for gradient computation in linear regression
//     (paper Definition 6.2).
//   - DegreeMap: an explicit degree-indexed aggregate encoding equivalent to
//     the paper's SQL-OPT competitor.
//
// The relational data ring F[Z] (paper Definition 6.4) lives in package
// internal/data because its elements are relations.
package ring

// Ring is a commutative-enough ring over payload type T. Implementations
// must satisfy the ring axioms (associativity and commutativity of Add,
// associativity of Mul, distributivity of Mul over Add, identities, and
// additive inverses). Mul need not be commutative (the matrix ring is not in
// general), but all rings used by the engine are.
//
// Add, Mul, and Neg must not modify their arguments, because views share
// payload values. The in-place forms (AddInto, MulInto, MulAddInto,
// CopyInto and their pointer-source twins) write only *dst, and only into
// storage *dst exclusively owns; sources are never written through. Rings
// with reusable payload storage (Int, Float, Cofactor, DegreeMap) accumulate
// into it without allocating, and CopyInto deep-copies so *dst never shares
// storage with its source. Rings whose payloads are immutable values
// (data.RelRing) implement the in-place forms by replacing *dst — AddInto is
// *dst = Add(*dst, src) and CopyInto shares src — which is safe because
// nothing ever mutates such a payload. Relations rely on this contract:
// stored payloads are CopyInto copies accumulated in place by later merges,
// so payloads read out of a relation are snapshots only until its next
// update.
//
// Operands of the in-place forms are passed by pointer: payloads can be
// wide (a cofactor triple is 80 bytes of header plus its blocks), and the
// point of these operations is to avoid moving payloads around.
type Ring[T any] interface {
	// Zero returns the additive identity.
	Zero() T
	// One returns the multiplicative identity.
	One() T
	// Add returns a + b.
	Add(a, b T) T
	// Neg returns the additive inverse -a.
	Neg(a T) T
	// Mul returns a * b.
	Mul(a, b T) T
	// IsZero reports whether a equals the additive identity. Relations use
	// it to drop keys whose payloads vanish, keeping supports finite.
	IsZero(a T) bool

	// AddInto accumulates src into *dst in place: *dst += src. src is taken
	// by value: merge sources usually arrive as by-value parameters, and
	// passing their address through an interface call would force them to
	// escape (one heap allocation per merge).
	AddInto(dst *T, src T)
	// MulInto sets *dst = *a * *b, reusing dst's storage where possible.
	// dst must not alias a or b.
	MulInto(dst, a, b *T)
	// MulAddInto accumulates a product: *dst += *a * *b. dst must not alias
	// a or b.
	MulAddInto(dst, a, b *T)
	// CopyInto sets *dst to a copy of src that later in-place operations on
	// *dst cannot bleed into src, reusing dst's storage (by value for the
	// same escape reason as AddInto).
	CopyInto(dst *T, src T)
	// IsOne reports whether *a is the multiplicative identity, letting hot
	// paths skip products by one entirely (sharing the other operand is
	// always safe: values are never mutated through reads).
	IsOne(a *T) bool

	// AddIntoRef, CopyIntoRef and IsZeroRef are AddInto, CopyInto and
	// IsZero with source operands passed by pointer, skipping the by-value
	// copy at the interface boundary (an 80-byte header copy per call for
	// cofactor triples). Callers must only pass sources that are already
	// heap-resident — another relation entry's stored payload, an owned
	// accumulator field — because taking the address of a local variable
	// for one of these calls forces it to escape, which is exactly the
	// per-merge allocation the by-value forms exist to avoid.
	AddIntoRef(dst, src *T)
	CopyIntoRef(dst, src *T)
	IsZeroRef(p *T) bool

	// Bytes returns an estimate of the heap bytes held by the payload, for
	// memory accounting.
	Bytes(a T) int
}

// Sub returns a - b, a convenience over Add and Neg.
func Sub[T any](r Ring[T], a, b T) T { return r.Add(a, r.Neg(b)) }

// Sum folds Add over the given values, starting from Zero.
func Sum[T any](r Ring[T], vs ...T) T {
	acc := r.Zero()
	for _, v := range vs {
		acc = r.Add(acc, v)
	}
	return acc
}

// Prod folds Mul over the given values, starting from One.
func Prod[T any](r Ring[T], vs ...T) T {
	acc := r.One()
	for _, v := range vs {
		acc = r.Mul(acc, v)
	}
	return acc
}

// Pow returns a multiplied by itself n times; Pow(a, 0) is One.
func Pow[T any](r Ring[T], a T, n int) T {
	acc := r.One()
	for i := 0; i < n; i++ {
		acc = r.Mul(acc, a)
	}
	return acc
}
