package data

import (
	"strings"
	"testing"

	"fivm/internal/ring"
)

func TestRelationAccessors(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	r.Merge(Ints(1, 2), 5)
	r.Merge(Ints(3, 4), 7)

	if r.Ring() == nil {
		t.Error("Ring accessor")
	}
	if p, ok := r.Get(Ints(1, 2)); !ok || p != 5 {
		t.Errorf("Get = %v,%v", p, ok)
	}
	if _, ok := r.Get(Ints(9, 9)); ok {
		t.Error("Get on absent key")
	}
	// LookupProjected reaches the stored entry through a projection of a
	// wider tuple: (X, A, B) projected onto (A, B).
	proj := MustProjector(NewSchema("X", "A", "B"), r.Schema())
	if e := r.LookupProjected(proj, Ints(0, 1, 2)); e == nil || !e.Tuple.Equal(Ints(1, 2)) || e.Payload != 5 {
		t.Errorf("LookupProjected = %+v", e)
	}
	if e := r.LookupProjected(proj, Ints(0, 9, 9)); e != nil {
		t.Errorf("LookupProjected on absent key = %+v", e)
	}
	if !r.Contains(Ints(1, 2)) || r.Contains(Ints(9, 9)) {
		t.Error("Contains")
	}
	if got := len(r.Entries()); got != 2 {
		t.Errorf("Entries = %d", got)
	}
	se := r.SortedEntries()
	if len(se) != 2 {
		t.Fatalf("SortedEntries = %d", len(se))
	}
	// Sorted by encoded key: (1,2) before (3,4) for int encodings.
	if !se[0].Tuple.Equal(Ints(1, 2)) {
		t.Errorf("sorted order: %v first", se[0].Tuple)
	}
	s := r.String()
	for _, frag := range []string{"[A,B]", "(1,2)->5", "(3,4)->7"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
}

func TestMergeAllAndSingleton(t *testing.T) {
	a := Singleton[int64](ring.Int{}, NewSchema("A"), Ints(1), 2)
	b := Singleton[int64](ring.Int{}, NewSchema("A"), Ints(1), 3)
	a.MergeAll(b)
	if p, _ := a.Get(Ints(1)); p != 5 {
		t.Errorf("MergeAll sum = %v", p)
	}
	c := FromEntries[int64](ring.Int{}, NewSchema("A"),
		Entry[int64]{Tuple: Ints(1), Payload: 1}, Entry[int64]{Tuple: Ints(1), Payload: 1})
	if p, _ := c.Get(Ints(1)); p != 2 {
		t.Errorf("FromEntries dedup = %v", p)
	}
}

func TestIterateEarlyStop(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A"))
	r.Merge(Ints(1), 1)
	r.Merge(Ints(2), 1)
	n := 0
	r.Iterate(func(Tuple, int64) bool { n++; return false })
	if n != 1 {
		t.Errorf("Iterate visited %d, want 1", n)
	}
}

func TestJoinAllSingleAndPanic(t *testing.T) {
	a := Singleton[int64](ring.Int{}, NewSchema("A"), Ints(1), 2)
	if JoinAll(a) != a {
		t.Error("JoinAll of one relation should return it")
	}
	defer func() {
		if recover() == nil {
			t.Error("JoinAll() should panic")
		}
	}()
	JoinAll[int64]()
}

func TestLiftOne(t *testing.T) {
	lift := LiftOne[int64](ring.Int{})
	if lift("X", Int(42)) != 1 {
		t.Error("LiftOne should always return One")
	}
}

func TestIndexAccessors(t *testing.T) {
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A", "B")))
	ir.MergeIndexed(Ints(1, 2), 1)
	ix := ir.EnsureIndex(NewSchema("A"))
	if !ix.On().Equal(NewSchema("A")) {
		t.Error("On")
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
	if ir.Lookup(NewSchema("A")) != ix {
		t.Error("Lookup should return the same index")
	}
	if ir.Lookup(NewSchema("B")) != nil {
		t.Error("Lookup of absent index")
	}
	// EnsureIndex twice returns the same instance.
	if ir.EnsureIndex(NewSchema("A")) != ix {
		t.Error("EnsureIndex not idempotent")
	}
}

func TestMergeAllIndexedSchemaPermutation(t *testing.T) {
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A", "B")))
	o := NewRelation[int64](ring.Int{}, NewSchema("B", "A"))
	o.Merge(Ints(2, 1), 7) // (B=2, A=1)
	ir.MergeAllIndexed(o)
	if p, ok := ir.Get(Ints(1, 2)); !ok || p != 7 {
		t.Errorf("permuted MergeAllIndexed = %v,%v", p, ok)
	}
}

func TestMultisetAccessors(t *testing.T) {
	m := MultisetOf(NewSchema("X"), Ints(1), Ints(1), Ints(2))
	if m.TotalMult() != 3 {
		t.Errorf("TotalMult = %d", m.TotalMult())
	}
	if m.Mult(Ints(1)) != 2 || m.Mult(Ints(9)) != 0 {
		t.Error("Mult")
	}
	if got := m.SortedTuples(); len(got) != 2 || !got[0].Equal(Ints(1)) {
		t.Errorf("SortedTuples = %v", got)
	}
	s := m.String()
	if !strings.Contains(s, "(1)->2") {
		t.Errorf("String = %s", s)
	}
	var nilMS *Multiset
	if nilMS.String() != "{}" || nilMS.TotalMult() != 0 || nilMS.Schema() != nil {
		t.Error("nil multiset accessors")
	}
	if nilMS.ProjectOnto(NewSchema("X")) != nil {
		t.Error("nil projection")
	}
	u := UnitMultisetTimes(3)
	if u.Mult(Tuple{}) != 3 {
		t.Errorf("UnitMultisetTimes = %v", u)
	}
	if UnitMultisetTimes(0) != nil {
		t.Error("UnitMultisetTimes(0) should be nil")
	}
	sing := SingletonMultiset("X", Int(5))
	if sing.Len() != 1 || !sing.Schema().Equal(NewSchema("X")) {
		t.Errorf("SingletonMultiset = %v", sing)
	}
}

func TestRelRingScaleFastPath(t *testing.T) {
	rr := RelRing{}
	a := MultisetOf(NewSchema("X"), Ints(1), Ints(2))
	two := UnitMultisetTimes(2)
	p := rr.Mul(two, a)
	if p.Mult(Ints(1)) != 2 || p.Mult(Ints(2)) != 2 {
		t.Errorf("scale by 2 = %v", p)
	}
	if q := rr.Mul(a, two); q.Mult(Ints(1)) != 2 {
		t.Errorf("right scale = %v", q)
	}
	// Scaling by the unit shares the operand (immutability makes it safe).
	if rr.Mul(UnitMultisetTimes(1), a) != a {
		t.Error("unit scale should share")
	}
	if rr.Bytes(a) <= 0 || rr.Bytes(nil) != 0 {
		t.Error("Bytes")
	}
}

func TestSchemaCloneIndependent(t *testing.T) {
	s := NewSchema("A", "B")
	c := s.Clone()
	c[0] = "Z"
	if s[0] != "A" {
		t.Error("Clone shares storage")
	}
	p := MustProjector(s, NewSchema("B"))
	if p.Len() != 1 {
		t.Errorf("Projector Len = %d", p.Len())
	}
}

func TestValueEqualAcrossKinds(t *testing.T) {
	if Int(1) == Float(1) {
		t.Error("Int(1) must differ from Float(1)")
	}
	if String("1") == Int(1) {
		t.Error("String must differ from Int")
	}
	if Int(1) != Int(1) {
		t.Error("equal ints must compare equal")
	}
	if (Tuple{Int(1)}).Equal(Tuple{Int(1), Int(2)}) {
		t.Error("length mismatch")
	}
}

func TestUnionPanicsOnSchemaMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Union of different schemas should panic")
		}
	}()
	Union(NewRelation[int64](ring.Int{}, NewSchema("A")),
		NewRelation[int64](ring.Int{}, NewSchema("B")))
}

func TestMarginalizePanicsOnMissingVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Marginalize of absent variable should panic")
		}
	}()
	Marginalize(NewRelation[int64](ring.Int{}, NewSchema("A")), "Z",
		func(string, Value) int64 { return 1 })
}
