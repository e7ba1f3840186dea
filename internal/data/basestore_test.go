package data

import (
	"errors"
	"testing"

	"fivm/internal/ring"
)

func bsTuple(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Int(v)
	}
	return t
}

func TestBaseStoreApplyAndObserve(t *testing.T) {
	s := NewBaseStore()
	if err := s.Register("R", NewSchema("A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("S", NewSchema("B", "C")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("R", NewSchema("A", "B")); err == nil {
		t.Fatal("duplicate Register should fail")
	}

	var sawR, sawAll int
	s.Attach("onlyR", []string{"R"}, func(batch []BaseUpdate) error {
		for _, u := range batch {
			if u.Rel != "R" {
				t.Errorf("onlyR observer saw %q", u.Rel)
			}
			sawR += len(u.Tuples)
		}
		return nil
	})
	s.Attach("all", nil, func(batch []BaseUpdate) error {
		for _, u := range batch {
			sawAll += len(u.Tuples)
		}
		return nil
	})

	err := s.ApplyBatch([]BaseUpdate{
		{Rel: "R", Tuples: []Tuple{bsTuple(1, 2), bsTuple(3, 4), bsTuple(3, 4)}},
		{Rel: "S", Tuples: []Tuple{bsTuple(2, 5)}, Mult: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawR != 3 || sawAll != 4 {
		t.Errorf("observers saw R=%d all=%d, want 3 and 4", sawR, sawAll)
	}
	// Base compacts the log lazily: the duplicate insert coalesced to 2.
	if got, _ := s.Base("R").Get(bsTuple(3, 4)); got != 2 {
		t.Errorf("R[3,4] = %d, want 2", got)
	}

	// Deletion drives multiplicity to zero and drops the key at compaction.
	if err := s.ApplyBatch([]BaseUpdate{
		{Rel: "R", Tuples: []Tuple{bsTuple(1, 2)}, Mult: -1},
	}); err != nil {
		t.Fatal(err)
	}
	if s.Base("R").Contains(bsTuple(1, 2)) {
		t.Error("deleted key still present")
	}
	if s.Tuples() != 2 {
		t.Errorf("Tuples() = %d, want 2", s.Tuples())
	}

	// Detach stops delivery.
	s.Detach("onlyR")
	before := sawR
	if err := s.ApplyBatch([]BaseUpdate{
		{Rel: "R", Tuples: []Tuple{bsTuple(7, 7)}},
	}); err != nil {
		t.Fatal(err)
	}
	if sawR != before {
		t.Error("detached observer still delivered")
	}
	if got := s.Observers(); len(got) != 1 || got[0] != "all" {
		t.Errorf("observers = %v", got)
	}
}

func TestBaseStoreErrors(t *testing.T) {
	s := NewBaseStore()
	if err := s.Register("R", NewSchema("A")); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]BaseUpdate{{Rel: "Z", Tuples: []Tuple{bsTuple(1)}}}); err == nil {
		t.Error("unknown relation should fail")
	}
	if err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: []Tuple{bsTuple(1, 2)}}}); err == nil {
		t.Error("arity mismatch should fail")
	}

	boom := errors.New("boom")
	s.Attach("bad", nil, func([]BaseUpdate) error { return boom })
	err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: []Tuple{bsTuple(1)}}})
	if !errors.Is(err, boom) {
		t.Errorf("observer error not propagated: %v", err)
	}
}

func TestLiftFrom(t *testing.T) {
	src := NewRelation[int64](ring.Int{}, NewSchema("A"))
	src.Merge(bsTuple(1), 2)
	src.Merge(bsTuple(2), -1)
	dst := NewRelation[float64](ring.Float{}, NewSchema("A"))
	LiftFrom(dst, src, func(n int64) float64 { return float64(n) })
	if got, _ := dst.Get(bsTuple(1)); got != 2 {
		t.Errorf("dst[1] = %g", got)
	}
	if got, _ := dst.Get(bsTuple(2)); got != -1 {
		t.Errorf("dst[2] = %g", got)
	}
}

// TestBaseStoreLogBounded streams a window churn — every batch inserts the
// next tuples and deletes those inserted one window earlier — through a
// store with no Base callers, and checks that ApplyBatch alone keeps each
// pending log within max(merged Len, logFloor), that the merged contents
// equal a multiset oracle after every compaction, and that the store's
// footprint stays flat instead of growing with the stream.
func TestBaseStoreLogBounded(t *testing.T) {
	s := NewBaseStore()
	// R's window exceeds the floor (its log is bounded by its merged size),
	// S's stays below it (bounded by the floor).
	windows := map[string]int{"R": 2 * logFloor, "S": logFloor / 8}
	const batches, per = 10000, 40
	oracle := map[string]map[int64]int64{}
	for rel := range windows {
		if err := s.Register(rel, NewSchema("A", "B")); err != nil {
			t.Fatal(err)
		}
		oracle[rel] = map[int64]int64{}
	}
	// The i-th tuple's key recurs every two window laps; the first quarter
	// of every batch is applied twice (multiplicity 2).
	tuples := func(rel string, b int) []Tuple {
		ts := make([]Tuple, per)
		for j := range ts {
			k := int64((b*per + j) % (2 * windows[rel]))
			ts[j] = bsTuple(k, k%7)
		}
		return ts
	}
	update := func(batch []BaseUpdate, rel string, ts []Tuple, mult int64) []BaseUpdate {
		for _, tu := range ts {
			oracle[rel][tu[0].AsInt()] += mult
		}
		return append(batch, BaseUpdate{Rel: rel, Tuples: ts, Mult: mult})
	}
	compactions := 0
	var early, late int // peak footprint in the second and the last quarter
	for b := 0; b < batches; b++ {
		var batch []BaseUpdate
		for rel, w := range windows {
			ins := tuples(rel, b)
			batch = update(batch, rel, ins, 1)
			batch = update(batch, rel, ins[:per/4], 1)
			if old := b - w/per; old >= 0 {
				del := tuples(rel, old)
				batch = update(batch, rel, del, -1)
				batch = update(batch, rel, del[:per/4], -1)
			}
		}
		before := map[string]int{"R": s.pendingN["R"], "S": s.pendingN["S"]}
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		for rel := range windows {
			m := s.merged[rel]
			p := s.pendingN[rel]
			if p > max(m.Len(), logFloor) {
				t.Fatalf("batch %d: %s pending %d > max(merged %d, floor %d)", b, rel, p, m.Len(), logFloor)
			}
			if p >= before[rel] {
				continue // no compaction this batch
			}
			compactions++
			live := 0
			for k, n := range oracle[rel] {
				if n == 0 {
					continue
				}
				live++
				if got, _ := m.Get(bsTuple(k, k%7)); got != n {
					t.Fatalf("batch %d: %s[%d] = %d after compaction, oracle %d", b, rel, k, got, n)
				}
			}
			if m.Len() != live {
				t.Fatalf("batch %d: %s holds %d keys after compaction, oracle %d", b, rel, m.Len(), live)
			}
		}
		if b%50 != 0 {
			continue
		}
		switch mem := s.MemoryBytes(); {
		case b >= batches/4 && b < batches/2:
			early = max(early, mem)
		case b >= 3*batches/4:
			late = max(late, mem)
		}
	}
	if compactions < 10 {
		t.Fatalf("only %d compactions over %d batches", compactions, batches)
	}
	if late > early+early/20 {
		t.Fatalf("store footprint grew: peak %d bytes in the last quarter vs %d in the second", late, early)
	}
}
