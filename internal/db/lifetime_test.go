package db

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/serve"
)

// Snapshot-lifetime property: an epoch no reader loaded is released as soon
// as it is superseded and its storage is recycled by later publishes, so a
// snapshot a reader pinned must have been marked seen by the accessor that
// returned it — otherwise its entries are overwritten under the reader. Each
// accessor gets its own DB (a second reader marking the same epochs would
// mask a missing mark) with one reader that pins, checksums, waits for
// lifetimePinBatches more applied batches of scattered window churn, and
// checksums again. Run under -race in CI: a reader of recycled storage is
// also a data race with the writer refilling it.

const (
	// lifetimeGenSpan mirrors the snapshot arena's publish-generation span
	// (genSpan in internal/data/snaparena.go): a released epoch's storage is
	// reused within about two generations of publishes.
	lifetimeGenSpan    = 16
	lifetimePinBatches = 3 * lifetimeGenSpan
	lifetimePins       = 6    // pin/check cycles per accessor
	lifetimeKeys       = 1024 // group-by keys of the view's result
	lifetimeWindow     = 2000 // live tuples in the churned window
	lifetimeBatch      = 100  // inserts (and as many window deletes) per batch
)

// lifetimeAccessor builds a reader's pin function over one accessor; the
// pin function is called once per cycle, from the reader goroutine only.
type lifetimeAccessor struct {
	name string
	pin  func(d *DB, v *View[float64]) func() *ivm.ViewSnapshot[float64]
}

var lifetimeAccessors = []lifetimeAccessor{
	{"Epoch+SnapshotOf", func(d *DB, _ *View[float64]) func() *ivm.ViewSnapshot[float64] {
		return func() *ivm.ViewSnapshot[float64] { return SnapshotOf[float64](d.Epoch(), "sums") }
	}},
	{"View.Snapshot", func(_ *DB, v *View[float64]) func() *ivm.ViewSnapshot[float64] {
		return v.Snapshot
	}},
	{"View.Reader+Refresh", func(_ *DB, v *View[float64]) func() *ivm.ViewSnapshot[float64] {
		var r *serve.Reader[float64]
		return func() *ivm.ViewSnapshot[float64] {
			if r == nil {
				r = v.Reader() // the first cycle checks the Epoch-pinned start
			} else {
				r.Refresh()
			}
			return r.Snapshot()
		}
	}},
	{"ReaderFor", func(d *DB, _ *View[float64]) func() *ivm.ViewSnapshot[float64] {
		return func() *ivm.ViewSnapshot[float64] {
			r, err := ReaderFor[float64](d, "sums")
			if err != nil {
				panic(err)
			}
			return r.Snapshot()
		}
	}},
	{"serve.NewReader", func(_ *DB, v *View[float64]) func() *ivm.ViewSnapshot[float64] {
		return func() *ivm.ViewSnapshot[float64] { return serve.NewReader[float64](v.Maintainer()).Snapshot() }
	}},
}

func TestSnapshotLifetimeUnderChurn(t *testing.T) {
	for i, acc := range lifetimeAccessors {
		t.Run(acc.name, func(t *testing.T) { runLifetime(t, acc, int64(i+1)) })
	}
}

func runLifetime(t *testing.T, acc lifetimeAccessor, seed int64) {
	d, err := Open(Catalog{"W": data.NewSchema("k", "v")}, Options{DisableStats: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	v, err := CreateViewSQL(d, "sums", "SELECT k, SUM(v) FROM W GROUP BY k", ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var window []data.Tuple
	step := func() {
		ins := make([]data.Tuple, lifetimeBatch)
		for i := range ins {
			ins[i] = tup(rng.Int63n(lifetimeKeys), 1+rng.Int63n(1000))
		}
		batch := []Update{Insert("W", ins...)}
		if len(window) >= lifetimeWindow {
			batch = append(batch, Delete("W", window[:lifetimeBatch]...))
			window = window[lifetimeBatch:]
		}
		window = append(window, ins...)
		if err := d.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	for len(window) < lifetimeWindow {
		step()
	}

	// applied is the writer's batch count as the reader sees it (DB.Applied
	// is maintenance-goroutine only); stopped releases a waiting reader when
	// the writer gives up.
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		applied int
		stopped bool
	)
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return applied
	}
	waitFor := func(n int) bool {
		mu.Lock()
		defer mu.Unlock()
		for applied < n && !stopped {
			cond.Wait()
		}
		return !stopped
	}
	defer func() {
		mu.Lock()
		stopped = true
		cond.Broadcast()
		mu.Unlock()
	}()

	pin := acc.pin(d, v)
	verdict := make(chan string, 1) // the reader's failure, or "" when it is through
	go func() {
		for cycle := 0; cycle < lifetimePins; cycle++ {
			snap := pin()
			at := count()
			want := lifetimeChecksum(snap.Result())
			if !waitFor(at + lifetimePinBatches) {
				break
			}
			if got := lifetimeChecksum(snap.Result()); got != want {
				verdict <- fmt.Sprintf("cycle %d: snapshot of epoch %d changed under its reader after %d batches: checksum %x, pinned as %x",
					cycle, snap.Epoch, lifetimePinBatches, got, want)
				return
			}
		}
		verdict <- ""
	}()
	// The writer streams until the reader is through; the cap only guards a
	// stuck reader.
	const maxBatches = 20 * lifetimePins * lifetimePinBatches
	for n := 0; ; n++ {
		select {
		case msg := <-verdict:
			if msg != "" {
				t.Fatal(msg)
			}
			return
		default:
		}
		if n == maxBatches {
			t.Fatalf("reader did not finish %d cycles in %d batches", lifetimePins, maxBatches)
		}
		step()
		mu.Lock()
		applied++
		cond.Broadcast()
		mu.Unlock()
	}
}

// lifetimeChecksum hashes a result snapshot's keys and payloads in key
// order.
func lifetimeChecksum(s *data.RelationSnapshot[float64]) uint64 {
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
