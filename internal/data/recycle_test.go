package data_test

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fivm/internal/data"
	"fivm/internal/db"
)

// Recycling guards for DB-published snapshots: an epoch no reader loaded is
// released deterministically, so its arena storage is reused at the next
// publishes without a collection; an epoch a reader did load is never
// released, and its storage stays intact however many epochs follow.

const (
	recycleKeys   = 4096 // group-by keys of the SQL view's result
	recycleWindow = 8000 // live tuples in the churned window
	recycleBatch  = 200  // inserts (and as many window deletes) per batch
)

// churnDB is a DB with one SQL view whose result has recycleKeys groups,
// fed by scattered window churn: every batch inserts recycleBatch tuples
// with random group keys and deletes the recycleBatch oldest, so nearly
// every chunk of the result changes each publish.
type churnDB struct {
	d      *db.DB
	v      *db.View[float64]
	rng    *rand.Rand
	window []data.Tuple
}

func newChurnDB(t *testing.T, seed int64) *churnDB {
	t.Helper()
	d, err := db.Open(db.Catalog{"R": data.NewSchema("a", "b")}, db.Options{DisableStats: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	v, err := db.CreateViewSQL(d, "sums", "SELECT a, SUM(b) FROM R GROUP BY a", db.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := &churnDB{d: d, v: v, rng: rand.New(rand.NewSource(seed))}
	for len(c.window) < recycleWindow {
		c.step(t)
	}
	return c
}

func (c *churnDB) step(t *testing.T) {
	t.Helper()
	ins := make([]data.Tuple, recycleBatch)
	for i := range ins {
		ins[i] = data.Tuple{data.Int(c.rng.Int63n(recycleKeys)), data.Int(1 + c.rng.Int63n(100))}
	}
	batch := []db.Update{db.Insert("R", ins...)}
	if len(c.window) >= recycleWindow {
		batch = append(batch, db.Delete("R", c.window[:recycleBatch]...))
		c.window = c.window[recycleBatch:]
	}
	c.window = append(c.window, ins...)
	if err := c.d.Apply(batch); err != nil {
		t.Fatal(err)
	}
}

// result is the view's live result relation, the one its epochs snapshot.
func (c *churnDB) result() *data.Relation[float64] { return c.v.Maintainer().Result() }

func checksum(s *data.RelationSnapshot[float64]) uint64 {
	h := fnv.New64a()
	var b [8]byte
	s.IterateEntries(func(e *data.Entry[float64]) bool {
		h.Write([]byte(e.Key()))
		bits := math.Float64bits(e.Payload)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
		return true
	})
	return h.Sum64()
}

// TestUnreadEpochsRecycleArena: with no reader, every published epoch is
// released as soon as it is superseded, so once the first generations have
// died the result's snapshot arena serves every publish from its freelists.
// Without deterministic release the arena depends on the GC backstop and
// keeps allocating fresh blocks between collections.
func TestUnreadEpochsRecycleArena(t *testing.T) {
	c := newChurnDB(t, 1)
	for i := 0; i < 4*data.GenSpan; i++ {
		c.step(t)
	}
	warm := data.ArenaFreshBlocks(c.result())
	if warm == 0 {
		t.Fatal("the result's arena allocated no blocks: the view does not publish")
	}
	const batches = 8 * data.GenSpan
	for i := 0; i < batches; i++ {
		c.step(t)
	}
	if grew := data.ArenaFreshBlocks(c.result()) - warm; grew != 0 {
		t.Fatalf("%d fresh arena blocks over %d unread publishes after warm-up (%d during warm-up)", grew, batches, warm)
	}
}

// TestSeenEpochNeverReleased: epochs a reader loaded — through DB.Epoch and
// through View.Snapshot — read back unchanged after 3·genSpan further
// publishes and a collection, while unread epochs around them are recycled.
func TestSeenEpochNeverReleased(t *testing.T) {
	c := newChurnDB(t, 2)
	e := c.d.Epoch()
	fromEpoch := db.SnapshotOf[float64](e, "sums").Result()
	fromView := c.v.Snapshot().Result()
	want := checksum(fromEpoch)
	if got := checksum(fromView); got != want {
		t.Fatalf("View.Snapshot and DB.Epoch disagree at one applied batch: %x vs %x", got, want)
	}
	for i := 0; i < 3*data.GenSpan; i++ {
		c.step(t)
	}
	runtime.GC()
	c.step(t) // drains whatever the collection reported dead
	if got := checksum(fromEpoch); got != want {
		t.Fatalf("epoch pinned through DB.Epoch changed: %x, want %x", got, want)
	}
	if got := checksum(fromView); got != want {
		t.Fatalf("epoch pinned through View.Snapshot changed: %x, want %x", got, want)
	}
	if checksum(db.SnapshotOf[float64](c.d.Epoch(), "sums").Result()) == want {
		t.Fatal("the stream did not change the result: nothing was tested")
	}
}
