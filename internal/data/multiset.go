package data

import (
	"fmt"
	"sort"
	"strings"
)

// Multiset is a relation over the Z ring: a finite map from tuples to
// integer multiplicities. It is the element type of the relational data ring
// F[Z] (paper Definition 6.4), which lets view payloads carry entire
// relations — the listing or factorized representation of conjunctive query
// results. Multisets are immutable once published as payloads.
type Multiset struct {
	schema Schema
	rows   map[string]msRow
}

type msRow struct {
	tuple Tuple
	mult  int64
}

// NewMultiset creates an empty multiset over the given schema.
func NewMultiset(schema Schema) *Multiset {
	return &Multiset{schema: schema, rows: make(map[string]msRow)}
}

// MultisetOf builds a multiset from tuples all with multiplicity 1.
func MultisetOf(schema Schema, tuples ...Tuple) *Multiset {
	m := NewMultiset(schema)
	for _, t := range tuples {
		m.add(t, 1)
	}
	return m
}

// UnitMultiset returns {() -> 1}, the identity of the relational ring.
func UnitMultiset() *Multiset {
	m := NewMultiset(nil)
	m.add(Tuple{}, 1)
	return m
}

// UnitMultisetTimes returns {() -> n}: a multiplicity-n payload, the sum of
// n units (or its negation for n < 0). Returns nil (zero) for n == 0.
func UnitMultisetTimes(n int64) *Multiset {
	if n == 0 {
		return nil
	}
	m := NewMultiset(nil)
	m.add(Tuple{}, n)
	return m
}

// SingletonMultiset returns {(x) -> 1} over schema {variable}: the lifting
// of a free variable's value in the relational ring.
func SingletonMultiset(variable string, v Value) *Multiset {
	m := NewMultiset(Schema{variable})
	m.add(Tuple{v}, 1)
	return m
}

func (m *Multiset) add(t Tuple, mult int64) {
	key := t.Key()
	row, ok := m.rows[key]
	if !ok {
		if mult != 0 {
			m.rows[key] = msRow{tuple: t, mult: mult}
		}
		return
	}
	row.mult += mult
	if row.mult == 0 {
		delete(m.rows, key)
		return
	}
	m.rows[key] = row
}

// Schema returns the multiset's schema; nil for the empty schema.
func (m *Multiset) Schema() Schema {
	if m == nil {
		return nil
	}
	return m.schema
}

// Len returns the number of distinct tuples with non-zero multiplicity.
func (m *Multiset) Len() int {
	if m == nil {
		return 0
	}
	return len(m.rows)
}

// TotalMult returns the sum of multiplicities.
func (m *Multiset) TotalMult() int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, r := range m.rows {
		n += r.mult
	}
	return n
}

// Mult returns the multiplicity of tuple t.
func (m *Multiset) Mult(t Tuple) int64 {
	if m == nil {
		return 0
	}
	return m.rows[t.Key()].mult
}

// Iterate calls f for each tuple/multiplicity pair until f returns false.
func (m *Multiset) Iterate(f func(t Tuple, mult int64) bool) {
	if m == nil {
		return
	}
	for _, r := range m.rows {
		if !f(r.tuple, r.mult) {
			return
		}
	}
}

// SortedTuples returns the tuples ordered by encoded key.
func (m *Multiset) SortedTuples() []Tuple {
	if m == nil {
		return nil
	}
	keys := make([]string, 0, len(m.rows))
	for k := range m.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, m.rows[k].tuple)
	}
	return out
}

// scale returns the multiset with every multiplicity multiplied by k;
// multisets are immutable, so k == 1 may share the receiver.
func (m *Multiset) scale(k int64) *Multiset {
	if k == 0 || m.Len() == 0 {
		return nil
	}
	if k == 1 {
		return m
	}
	out := NewMultiset(m.schema)
	for key, r := range m.rows {
		out.rows[key] = msRow{tuple: r.tuple, mult: r.mult * k}
	}
	return out
}

// ProjectOnto returns the multiset projected onto the target schema, with
// multiplicities of merged tuples summed. The factorized representation uses
// it to keep only the view's own marginalized variable in each payload.
func (m *Multiset) ProjectOnto(target Schema) *Multiset {
	if m == nil {
		return nil
	}
	if m.schema.Equal(target) {
		return m
	}
	out := NewMultiset(target)
	proj := MustProjector(m.schema, target)
	for _, r := range m.rows {
		out.add(proj.Apply(r.tuple), r.mult)
	}
	if len(out.rows) == 0 {
		return nil
	}
	return out
}

// String renders the multiset deterministically for debugging.
func (m *Multiset) String() string {
	if m == nil {
		return "{}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v{", m.schema)
	for i, t := range m.SortedTuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v->%d", t, m.rows[t.Key()].mult)
	}
	b.WriteString("}")
	return b.String()
}

// RelRing is the relational data ring F[Z]: addition is multiset union,
// multiplication is natural join (Cartesian product concatenation when the
// operand schemas are disjoint), zero is the empty multiset, and one is
// {() -> 1}. Within a view tree the operand schemas of + always agree and
// the operand schemas of * are disjoint, which keeps this a ring for our
// purposes (paper footnote 2).
//
// Multisets are never mutated once built, so the ring's in-place forms
// replace *dst instead of writing into it (AddInto is *dst = Add(*dst, src),
// CopyInto shares src): payloads keep the costs and sharing of the immutable
// operations, and snapshots holding an old multiset never observe a merge.
type RelRing struct{}

// Zero returns the empty multiset (represented as nil).
func (RelRing) Zero() *Multiset { return nil }

// One returns {() -> 1}.
func (RelRing) One() *Multiset { return UnitMultiset() }

// IsZero reports whether the multiset has empty support.
func (RelRing) IsZero(a *Multiset) bool { return a.Len() == 0 }

// Neg negates every multiplicity.
func (RelRing) Neg(a *Multiset) *Multiset {
	if a.Len() == 0 {
		return nil
	}
	out := NewMultiset(a.schema)
	for k, r := range a.rows {
		out.rows[k] = msRow{tuple: r.tuple, mult: -r.mult}
	}
	return out
}

// Add returns the multiset union (multiplicities summed). Operand schemas
// must contain the same variables.
func (RelRing) Add(a, b *Multiset) *Multiset {
	if a.Len() == 0 {
		return b
	}
	if b.Len() == 0 {
		return a
	}
	if !a.schema.SameSet(b.schema) {
		panic(fmt.Sprintf("data: relational ring sum of schemas %v and %v", a.schema, b.schema))
	}
	out := NewMultiset(a.schema)
	for k, r := range a.rows {
		out.rows[k] = r
	}
	proj := MustProjector(b.schema, a.schema)
	for _, r := range b.rows {
		out.add(proj.Apply(r.tuple), r.mult)
	}
	if len(out.rows) == 0 {
		return nil
	}
	return out
}

// Mul returns the natural join with multiplicities multiplied; for disjoint
// schemas this is the Cartesian product that concatenates payload tuples.
func (RelRing) Mul(a, b *Multiset) *Multiset {
	if a.Len() == 0 || b.Len() == 0 {
		return nil
	}
	// Fast paths: a nullary operand {() -> m} scales the other. These
	// dominate in view trees, where bound variables lift to the unit.
	if len(a.schema) == 0 && len(a.rows) == 1 {
		return b.scale(a.rows[""].mult)
	}
	if len(b.schema) == 0 && len(b.rows) == 1 {
		return a.scale(b.rows[""].mult)
	}
	common := a.schema.Intersect(b.schema)
	outSchema := a.schema.Union(b.schema)
	out := NewMultiset(outSchema)

	if len(common) == 0 {
		for _, ra := range a.rows {
			for _, rb := range b.rows {
				out.add(Concat(ra.tuple, rb.tuple), ra.mult*rb.mult)
			}
		}
		return out
	}

	bCommon := MustProjector(b.schema, common)
	bExtra := MustProjector(b.schema, b.schema.Minus(common))
	type bucket struct {
		extra Tuple
		mult  int64
	}
	buckets := make(map[string][]bucket, len(b.rows))
	for _, rb := range b.rows {
		k := bCommon.Key(rb.tuple)
		buckets[k] = append(buckets[k], bucket{extra: bExtra.Apply(rb.tuple), mult: rb.mult})
	}
	aCommon := MustProjector(a.schema, common)
	for _, ra := range a.rows {
		for _, m := range buckets[aCommon.Key(ra.tuple)] {
			out.add(Concat(ra.tuple, m.extra), ra.mult*m.mult)
		}
	}
	if len(out.rows) == 0 {
		return nil
	}
	return out
}

// Bytes estimates the heap footprint of a multiset payload.
func (RelRing) Bytes(a *Multiset) int {
	if a == nil {
		return 0
	}
	n := 48
	for k, r := range a.rows {
		n += len(k) + 16 + len(r.tuple)*32 + 16
	}
	return n
}

// AddInto sets *dst = *dst + src.
func (r RelRing) AddInto(dst **Multiset, src *Multiset) { *dst = r.Add(*dst, src) }

// MulInto sets *dst = *a * *b.
func (r RelRing) MulInto(dst, a, b **Multiset) { *dst = r.Mul(*a, *b) }

// MulAddInto sets *dst = *dst + *a * *b.
func (r RelRing) MulAddInto(dst, a, b **Multiset) { *dst = r.Add(*dst, r.Mul(*a, *b)) }

// CopyInto sets *dst = src, sharing the immutable multiset.
func (RelRing) CopyInto(dst **Multiset, src *Multiset) { *dst = src }

// IsOne reports whether *a is {() -> 1}.
func (RelRing) IsOne(a **Multiset) bool {
	m := *a
	return len(m.Schema()) == 0 && m.Len() == 1 && m.rows[""].mult == 1
}

// AddIntoRef sets *dst = *dst + *src.
func (r RelRing) AddIntoRef(dst, src **Multiset) { *dst = r.Add(*dst, *src) }

// CopyIntoRef sets *dst = *src, sharing the immutable multiset.
func (RelRing) CopyIntoRef(dst, src **Multiset) { *dst = *src }

// IsZeroRef reports whether *p has empty support.
func (RelRing) IsZeroRef(p **Multiset) bool { return (*p).Len() == 0 }
