package ivm

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// batchStrategies enumerates the four maintainer strategies over a generic
// payload ring, for batched-vs-sequential differential testing.
func batchStrategies[P any](t *testing.T, q query.Query, r ring.Ring[P], lift data.LiftFunc[P]) map[string]func() Maintainer[P] {
	t.Helper()
	return map[string]func() Maintainer[P]{
		"F-IVM": func() Maintainer[P] {
			e, err := New[P](q, paperOrder(), r, lift, Options[P]{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		"1-IVM": func() Maintainer[P] {
			m, err := NewFirstOrder[P](q, paperOrder(), r, lift)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"DBT": func() Maintainer[P] {
			m, err := NewRecursive[P](q, r, lift, nil)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"RE-EVAL": func() Maintainer[P] {
			m, err := NewReEval[P](q, paperOrder(), r, lift)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
}

// runBatchEquivalence drives a batched and a sequential instance of each
// strategy through identical random batches (with relations repeating inside
// a batch, so coalescing is exercised) and demands identical results after
// every batch. With wantFused, the batched F-IVM and DBT instances must also
// have taken the sorted-run fuser path at least once.
func runBatchEquivalence[P any](t *testing.T, q query.Query, r ring.Ring[P], lift data.LiftFunc[P],
	mkDelta func(rng *rand.Rand, schema data.Schema) *data.Relation[P], eq func(a, b P) bool, wantFused bool) {
	t.Helper()
	for name, mk := range batchStrategies(t, q, r, lift) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 1007))
			batched, seq := mk(), mk()
			for _, m := range []Maintainer[P]{batched, seq} {
				if err := m.Init(); err != nil {
					t.Fatal(err)
				}
			}
			rels := q.RelNames()
			for step := 0; step < 12; step++ {
				n := 1 + rng.Intn(6)
				batch := make([]NamedDelta[P], 0, n)
				for i := 0; i < n; i++ {
					rel := rels[rng.Intn(len(rels))]
					rd, _ := q.Rel(rel)
					batch = append(batch, NamedDelta[P]{Rel: rel, Delta: mkDelta(rng, rd.Schema)})
				}
				if err := batched.ApplyDeltas(batch); err != nil {
					t.Fatal(err)
				}
				for _, nd := range batch {
					if err := seq.ApplyDelta(nd.Rel, nd.Delta); err != nil {
						t.Fatal(err)
					}
				}
				if !batched.Result().Equal(seq.Result(), eq) {
					t.Fatalf("step %d: batched %v vs sequential %v", step, batched.Result(), seq.Result())
				}
			}
			if n, ok := fusedRuns(batched); wantFused && ok && n == 0 {
				t.Fatal("the sorted-run fuser never ran")
			}
		})
	}
}

// fusedRuns counts the batches that took the sorted-run fuser path across
// all of a maintainer's fusers; ok is false for strategies without fusers.
func fusedRuns[P any](m Maintainer[P]) (n int, ok bool) {
	switch m := m.(type) {
	case *Engine[P]:
		for _, plan := range m.plans {
			for _, st := range plan.steps {
				n += st.fuse.fusedN
			}
		}
		return n, true
	case *Recursive[P]:
		for _, v := range m.views {
			for _, d := range v.deltas {
				n += d.fuse.fusedN
			}
		}
		return n, true
	}
	return 0, false
}

// TestApplyDeltasMatchesSequentialInt checks, over the Z ring, that a batch
// applied via ApplyDeltas produces exactly the state of the same updates
// applied one at a time, for all four strategies.
func TestApplyDeltasMatchesSequentialInt(t *testing.T) {
	q := paperQuery("A")
	runBatchEquivalence[int64](t, q, ring.Int{}, valueLift,
		func(rng *rand.Rand, schema data.Schema) *data.Relation[int64] {
			return randomDelta(rng, schema, 4, 1+rng.Intn(4))
		},
		eqInt, false)
}

// TestApplyDeltasMatchesSequentialFloat repeats the check over the R ring
// with integer-valued payloads, so float addition is exact and results must
// be bit-identical.
func TestApplyDeltasMatchesSequentialFloat(t *testing.T) {
	q := paperQuery("A")
	sumLift := func(v string, x data.Value) float64 {
		if v == "D" {
			return x.AsFloat()
		}
		return 1
	}
	mkDelta := func(rng *rand.Rand, schema data.Schema) *data.Relation[float64] {
		d := data.NewRelation[float64](ring.Float{}, schema)
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			tup := make(data.Tuple, len(schema))
			for j := range tup {
				tup[j] = data.Int(int64(rng.Intn(4)))
			}
			d.Merge(tup, float64(rng.Intn(5)-2))
		}
		return d
	}
	runBatchEquivalence[float64](t, q, ring.Float{}, sumLift, mkDelta,
		func(a, b float64) bool { return a == b }, false)
}

// TestApplyDeltasMatchesSequentialRelRing repeats the check over the
// relational ring F[Z], whose payloads are immutable multisets updated by
// the ring's value-replacing in-place forms. Each delta holds 40 tuples
// whose first column ranges over 3 values and whose others range over 64,
// so marginalizing steps see at least fuseMinItems work items collapsing
// onto few output keys: the duplicate-rate gate opens and the sorted-run
// fuser must run.
func TestApplyDeltasMatchesSequentialRelRing(t *testing.T) {
	q := paperQuery("A")
	rr := data.RelRing{}
	lift := func(v string, x data.Value) *data.Multiset {
		if v == "D" {
			return data.SingletonMultiset(v, x)
		}
		return data.UnitMultiset()
	}
	mkDelta := func(rng *rand.Rand, schema data.Schema) *data.Relation[*data.Multiset] {
		d := data.NewRelation[*data.Multiset](rr, schema)
		for i := 0; i < 40; i++ {
			tup := make(data.Tuple, len(schema))
			tup[0] = data.Int(int64(rng.Intn(3)))
			for j := 1; j < len(tup); j++ {
				tup[j] = data.Int(int64(rng.Intn(64)))
			}
			d.Merge(tup, data.UnitMultisetTimes(int64(rng.Intn(2)+1)))
		}
		return d
	}
	runBatchEquivalence[*data.Multiset](t, q, rr, lift, mkDelta,
		func(a, b *data.Multiset) bool { return rr.IsZero(rr.Add(a, rr.Neg(b))) }, true)
}

// TestApplyDeltasEmptyAndNil checks degenerate batches: empty slices and
// empty deltas are no-ops for every strategy.
func TestApplyDeltasEmptyAndNil(t *testing.T) {
	q := paperQuery()
	for name, mk := range batchStrategies[int64](t, q, ring.Int{}, countLift) {
		t.Run(name, func(t *testing.T) {
			m := mk()
			if err := m.Init(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			rd, _ := q.Rel("S")
			if err := m.ApplyDelta("S", randomDelta(rng, rd.Schema, 3, 5)); err != nil {
				t.Fatal(err)
			}
			before := m.Result().String()
			if err := m.ApplyDeltas(nil); err != nil {
				t.Fatal(err)
			}
			empty := data.NewRelation[int64](ring.Int{}, rd.Schema)
			if err := m.ApplyDeltas([]NamedDelta[int64]{{Rel: "S", Delta: empty}}); err != nil {
				t.Fatal(err)
			}
			// A nil delta is a no-op for every batch shape, including a
			// relation that appears only once (regression: this used to
			// reach the single-delta path and panic).
			if err := m.ApplyDeltas([]NamedDelta[int64]{{Rel: "S", Delta: nil}}); err != nil {
				t.Fatal(err)
			}
			if err := m.ApplyDeltas([]NamedDelta[int64]{{Rel: "S", Delta: nil}, {Rel: "R", Delta: nil}}); err != nil {
				t.Fatal(err)
			}
			if got := m.Result().String(); got != before {
				t.Fatalf("empty batch changed result: %s vs %s", got, before)
			}
		})
	}
}

// TestCoalesceBatchCopyOnWrite checks that coalescing never mutates the
// caller's deltas.
func TestCoalesceBatchCopyOnWrite(t *testing.T) {
	schema := data.NewSchema("A", "B")
	d1 := data.NewRelation[int64](ring.Int{}, schema)
	d1.Merge(data.Ints(1, 2), 3)
	d2 := data.NewRelation[int64](ring.Int{}, schema)
	d2.Merge(data.Ints(1, 2), 4)
	batch := []NamedDelta[int64]{{Rel: "R", Delta: d1}, {Rel: "R", Delta: d2}}
	out := coalesceBatch(batch)
	if len(out) != 1 {
		t.Fatalf("coalesced to %d groups, want 1", len(out))
	}
	if p, _ := out[0].Delta.Get(data.Ints(1, 2)); p != 7 {
		t.Errorf("merged payload = %d, want 7", p)
	}
	if p, _ := d1.Get(data.Ints(1, 2)); p != 3 {
		t.Errorf("caller delta mutated: %d", p)
	}
	// Distinct relations pass through untouched (no copy).
	batch2 := []NamedDelta[int64]{{Rel: "R", Delta: d1}, {Rel: "S", Delta: d2}}
	out2 := coalesceBatch(batch2)
	if len(out2) != 2 || out2[0].Delta != d1 || out2[1].Delta != d2 {
		t.Error("unique-relation batch should pass through unchanged")
	}
}
