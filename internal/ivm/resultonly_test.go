package ivm

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// checkResultOnly asserts the result-only publication contract after a
// batch: the epoch catalogs the root alone under the query's name, the root
// relation is snapshotted and no other materialized view ever was, and the
// published result equals the full-catalog reference's.
func checkResultOnly(t *testing.T, step int, e *Engine[int64], ref Maintainer[int64]) {
	t.Helper()
	snap := e.Snapshot()
	if got := snap.Views(); len(got) != 1 || got[0] != e.q.Name || snap.View(e.q.Name) != snap.Result() {
		t.Fatalf("step %d: result-only catalog %v, want [%s] holding the result", step, got, e.q.Name)
	}
	if root := e.ViewOf(e.root); root == nil || !root.Snapshotted() {
		t.Fatalf("step %d: root view not snapshotted", step)
	}
	inner := 0
	e.root.Walk(func(n *viewtree.Node) {
		if r := e.ViewOf(n); n != e.root && r != nil {
			inner++
			if r.Snapshotted() {
				t.Fatalf("step %d: inner view %s was snapshotted", step, e.names[n])
			}
		}
	})
	if inner == 0 {
		t.Fatalf("step %d: no materialized inner views to check", step)
	}
	want := dumpSnapshot(ref.Snapshot().Result(), ring.Int{})
	if got := dumpSnapshot(snap.Result(), ring.Int{}); !sameDump(got, want, eqInt) {
		t.Fatalf("step %d: result-only %v vs full-catalog %v", step, got, want)
	}
}

// TestResultOnlyPublishesRootAlone drives result-only engines — an explicit
// order, composed chains, optimizer-chosen orders, and the unsharded
// Parallel delegate — beside full-catalog twins through an insert/delete
// stream, checking the contract after every batch.
func TestResultOnlyPublishesRootAlone(t *testing.T) {
	wide := query.MustNew("wide", nil,
		query.RelDef{Name: "W", Schema: data.NewSchema("A", "B", "C", "D")},
		query.RelDef{Name: "K", Schema: data.NewSchema("A", "F")},
	)
	wideOrder := func() *vorder.Order {
		return vorder.MustNew(vorder.V("A", vorder.V("F"), vorder.V("B", vorder.V("C", vorder.V("D")))))
	}
	cases := []struct {
		name     string
		q        query.Query
		order    func() *vorder.Order // nil: the optimizer chooses
		opts     Options[int64]
		parallel bool
	}{
		{name: "paper", q: paperQuery("A"), order: paperOrder},
		{name: "compose-chains", q: wide, order: wideOrder, opts: Options[int64]{ComposeChains: true}},
		{name: "chosen-order", q: paperQuery()},
		{name: "chosen-cost-materialize", q: triangleQuery(), opts: Options[int64]{CostMaterialize: true}},
		{name: "parallel-1", q: paperQuery("C"), order: paperOrder, parallel: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (Maintainer[int64], *Engine[int64]) {
				var o *vorder.Order
				if tc.order != nil {
					o = tc.order()
				}
				e, err := New[int64](tc.q, o, ring.Int{}, valueLift, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !tc.parallel {
					return e, e
				}
				p, err := NewParallel[int64](tc.q, ring.Int{}, 1, func() (Maintainer[int64], error) { return e, nil })
				if err != nil {
					t.Fatal(err)
				}
				return p, e
			}
			m, e := build()
			ref, _ := build()
			rng := rand.New(rand.NewSource(23))
			for _, rd := range tc.q.Rels {
				base := randomDelta(rng, rd.Schema, 4, 12)
				if err := m.Load(rd.Name, base.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := ref.Load(rd.Name, base); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Init(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Init(); err != nil {
				t.Fatal(err)
			}
			m.(ResultPublisher[int64]).SnapshotResult()
			ref.Snapshot()
			checkResultOnly(t, 0, e, ref)
			for step := 1; step <= 30; step++ {
				var batch []NamedDelta[int64]
				for _, rd := range tc.q.Rels {
					if rng.Intn(2) == 0 {
						batch = append(batch, NamedDelta[int64]{Rel: rd.Name, Delta: randomDelta(rng, rd.Schema, 4, 1+rng.Intn(5))})
					}
				}
				if err := m.ApplyDeltas(batch); err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					batch[i].Delta = batch[i].Delta.Clone()
				}
				if err := ref.ApplyDeltas(batch); err != nil {
					t.Fatal(err)
				}
				checkResultOnly(t, step, e, ref)
			}
		})
	}
}

// TestResultOnlySurvivesReplan: an adaptive result-only engine re-plans
// mid-stream (the drift stream of TestAdaptiveReoptimizationMigrates) and
// keeps publishing its new root alone, with no view of the migrated tree
// but the root ever snapshotted.
func TestResultOnlySurvivesReplan(t *testing.T) {
	q := triangleQuery()
	adaptive, err := New[int64](q, mustOrderCAB(), ring.Int{}, countLift,
		Options[int64]{AutoReoptimize: true, ReoptEvery: 8, DriftFactor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New[int64](q, mustOrderCAB(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := adaptive.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	adaptive.SnapshotResult()
	ref.Snapshot()

	rng := rand.New(rand.NewSource(31))
	step := 0
	apply := func(rel string, wideC bool) {
		rd, _ := q.Rel(rel)
		d := data.NewRelation[int64](ring.Int{}, rd.Schema)
		for i := 0; i < 6; i++ {
			a, b := int64(rng.Intn(4)), int64(rng.Intn(4))
			if wideC {
				switch wide := int64(rng.Intn(500)); rel {
				case "S": // (B, C)
					b = wide
				case "T": // (C, A)
					a = wide
				}
			}
			d.Merge(data.Ints(a, b), int64(1-2*rng.Intn(2)))
		}
		if err := adaptive.ApplyDelta(rel, d.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyDelta(rel, d); err != nil {
			t.Fatal(err)
		}
		step++
		checkResultOnly(t, step, adaptive, ref)
	}
	for i := 0; i < 16; i++ {
		apply(q.RelNames()[i%3], false)
	}
	for i := 0; i < 120; i++ {
		apply(q.RelNames()[1+i%2], true)
	}
	if adaptive.Replans() == 0 {
		t.Fatal("no re-plan despite hard statistics drift")
	}
	for i := 0; i < 24; i++ {
		apply(q.RelNames()[i%3], i%2 == 0)
	}
}
