package ring_test

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
)

// Every shipped ring implements the whole payload contract, in-place forms
// included.
var (
	_ ring.Ring[int64]                            = ring.Int{}
	_ ring.Ring[float64]                          = ring.Float{}
	_ ring.Ring[ring.Triple]                      = ring.Cofactor{}
	_ ring.Ring[ring.DegMap]                      = ring.DegreeMap{}
	_ ring.Ring[ring.PairVal[int64, ring.Triple]] = ring.Product[int64, ring.Triple]{}
	_ ring.Ring[*data.Multiset]                   = data.RelRing{}
)

// checkMutableMatchesImmutable drives the in-place operations of a ring
// against their immutable counterparts on random values, including repeated
// accumulation into one destination (the steady-state pattern of view
// payload maintenance).
func checkMutableMatchesImmutable[T any](t *testing.T, r ring.Ring[T], gen func(*rand.Rand) T, eq func(a, b T) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		a, b := gen(rng), gen(rng)

		var cp T
		r.CopyInto(&cp, a)
		if !eq(cp, a) {
			t.Fatalf("CopyInto: %v != %v", cp, a)
		}

		// IsOne detects exactly the multiplicative identity value.
		one := r.One()
		if !r.IsOne(&one) {
			t.Fatalf("IsOne(One()) = false")
		}

		// AddInto on an owned copy matches Add.
		r.AddInto(&cp, b)
		if want := r.Add(a, b); !eq(cp, want) {
			t.Fatalf("AddInto(%v, %v) = %v, want %v", a, b, cp, want)
		}

		// The pointer-source twins match the by-value forms.
		var ref T
		r.CopyIntoRef(&ref, &a)
		r.AddIntoRef(&ref, &b)
		if !eq(ref, cp) {
			t.Fatalf("CopyIntoRef+AddIntoRef(%v, %v) = %v, want %v", a, b, ref, cp)
		}
		if r.IsZeroRef(&a) != r.IsZero(a) {
			t.Fatalf("IsZeroRef(%v) != IsZero", a)
		}

		// MulInto matches Mul.
		var mp T
		r.MulInto(&mp, &a, &b)
		if want := r.Mul(a, b); !eq(mp, want) {
			t.Fatalf("MulInto(%v, %v) = %v, want %v", a, b, mp, want)
		}

		// MulAddInto matches Add(dst, Mul(a, b)), reusing the dirty mp as a
		// fresh accumulation base.
		c := gen(rng)
		var acc T
		r.CopyInto(&acc, c)
		r.MulAddInto(&acc, &a, &b)
		if want := r.Add(c, r.Mul(a, b)); !eq(acc, want) {
			t.Fatalf("MulAddInto(%v; %v, %v) = %v, want %v", c, a, b, acc, want)
		}

		// A long accumulation chain into one destination matches the
		// immutable fold.
		var chain T
		z := r.Zero()
		r.CopyInto(&chain, z)
		want := r.Zero()
		for j := 0; j < 6; j++ {
			x, y := gen(rng), gen(rng)
			r.MulAddInto(&chain, &x, &y)
			want = r.Add(want, r.Mul(x, y))
		}
		if !eq(chain, want) {
			t.Fatalf("accumulation chain = %v, want %v", chain, want)
		}
	}
}

func TestCofactorMutableMatchesImmutable(t *testing.T) {
	checkMutableMatchesImmutable[ring.Triple](t, ring.Cofactor{}, ring.GenTriple, ring.TripleEq)
}

func TestIntMutableMatchesImmutable(t *testing.T) {
	checkMutableMatchesImmutable[int64](t, ring.Int{},
		func(r *rand.Rand) int64 { return int64(r.Intn(9) - 4) },
		func(a, b int64) bool { return a == b })
}

func TestFloatMutableMatchesImmutable(t *testing.T) {
	checkMutableMatchesImmutable[float64](t, ring.Float{},
		func(r *rand.Rand) float64 { return float64(r.Intn(9) - 4) },
		func(a, b float64) bool { return a == b })
}

func TestDegreeMapMutableMatchesImmutable(t *testing.T) {
	checkMutableMatchesImmutable[ring.DegMap](t, ring.DegreeMap{}, ring.GenDegMap, ring.DegMapEq)
}

func TestProductMutableMatchesImmutable(t *testing.T) {
	r := ring.NewProduct[int64, ring.Triple](ring.Int{}, ring.Cofactor{})
	checkMutableMatchesImmutable[ring.PairVal[int64, ring.Triple]](t, r,
		func(rng *rand.Rand) ring.PairVal[int64, ring.Triple] {
			return ring.PairVal[int64, ring.Triple]{A: int64(rng.Intn(9) - 4), B: ring.GenTriple(rng)}
		},
		func(a, b ring.PairVal[int64, ring.Triple]) bool { return a.A == b.A && ring.TripleEq(a.B, b.B) })
}

// TestRelRingMutableMatchesImmutable runs the property over the relational
// ring, whose in-place forms replace *dst instead of writing into it. Its
// CopyInto shares the source, and the AddInto check recomputes the expected
// sum from that source afterwards, so an AddInto that mutated the shared
// multiset would fail it.
func TestRelRingMutableMatchesImmutable(t *testing.T) {
	rr := data.RelRing{}
	schema := data.NewSchema("A")
	gen := func(rng *rand.Rand) *data.Multiset {
		if rng.Intn(4) == 0 {
			return rr.Zero()
		}
		var pos, neg []data.Tuple
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			tup := data.Ints(int64(rng.Intn(4)))
			if rng.Intn(3) == 0 {
				neg = append(neg, tup)
			} else {
				pos = append(pos, tup)
			}
		}
		return rr.Add(data.MultisetOf(schema, pos...), rr.Neg(data.MultisetOf(schema, neg...)))
	}
	eq := func(a, b *data.Multiset) bool { return rr.IsZero(rr.Add(a, rr.Neg(b))) }
	checkMutableMatchesImmutable[*data.Multiset](t, rr, gen, eq)
}

// TestCopyIntoIsDeep checks that mutating a copy leaves the source intact —
// the ownership guarantee relations rely on.
func TestCopyIntoIsDeep(t *testing.T) {
	cf := ring.Cofactor{}
	src := ring.LiftValue(1, 3)
	var cp ring.Triple
	cf.CopyInto(&cp, src)
	cf.AddInto(&cp, ring.LiftValue(2, 5))
	if !ring.TripleEq(src, ring.LiftValue(1, 3)) {
		t.Fatalf("source triple mutated through copy: %v", src)
	}

	dm := ring.DegreeMap{}
	srcM := ring.LiftDegMap(0, 2)
	var cpM ring.DegMap
	dm.CopyInto(&cpM, srcM)
	dm.AddInto(&cpM, ring.LiftDegMap(1, 3))
	if !ring.DegMapEq(srcM, ring.LiftDegMap(0, 2)) {
		t.Fatalf("source map mutated through copy: %v", srcM)
	}
}

// TestTripleAddIntoSteadyStateNoAlloc checks the headline property: once the
// accumulator covers the operand's variables, AddInto and MulAddInto do not
// allocate.
func TestTripleAddIntoSteadyStateNoAlloc(t *testing.T) {
	cf := ring.Cofactor{}
	acc := cf.Zero()
	b := cf.Mul(ring.LiftValue(0, 2), cf.Mul(ring.LiftValue(1, 3), ring.LiftValue(2, 4)))
	acc.AddInto(&b) // warm: acc now covers b's variables
	if n := testing.AllocsPerRun(100, func() { acc.AddInto(&b) }); n != 0 {
		t.Errorf("steady-state AddInto allocates %.1f/op", n)
	}
	x, y := ring.LiftValue(0, 2), cf.Mul(ring.LiftValue(1, 3), ring.LiftValue(2, 4))
	if n := testing.AllocsPerRun(100, func() { acc.MulAddInto(&x, &y) }); n != 0 {
		t.Errorf("steady-state MulAddInto allocates %.1f/op", n)
	}
	var dst ring.Triple
	cf.MulInto(&dst, &x, &y) // warm dst capacity
	if n := testing.AllocsPerRun(100, func() { cf.MulInto(&dst, &x, &y) }); n != 0 {
		t.Errorf("steady-state MulInto allocates %.1f/op", n)
	}
}
