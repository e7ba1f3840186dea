package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// Retailer sizing shared by retailer-ingest and serve-mixed: the generated
// Inventory list is cycled through a sliding window, so the live state
// stays at retWindow Inventory tuples however long the run is.
var retailerSize = datasets.RetailerConfig{Locations: 20, Dates: 120, Items: 200, ItemsPerLocDate: 10}

const (
	retWindow  = 8000 // live Inventory tuples
	retInserts = 200  // Inventory inserts per batch (plus as many deletes)
	// Every batch replaces one Weather row; every itemEvery-th batch also
	// replaces one Item row (each replacement is a delete plus an insert).
	itemEvery = 4
	// retWarmBatches untimed batches precede the window; heap_bytes is
	// taken after them.
	retWarmBatches = 500
	// retailerSetups timed set-ups (about 0.09 s each) give setup_s.
	retailerSetups = 31
)

// retailerData is a generated retailer snowflake plus the update stream
// over it. next is deterministic in the seed.
type retailerData struct {
	ds      *datasets.Dataset
	cat     db.Catalog
	inv     []data.Tuple // generated Inventory list, cycled
	pos     int          // absolute index of the next Inventory insert
	weather []data.Tuple // current Weather rows
	item    []data.Tuple // current Item rows
	rng     *rand.Rand
	batches int
}

func genRetailer(seed int64) *retailerData {
	cfg := retailerSize
	cfg.Seed = seed
	ds := datasets.GenRetailer(cfg)
	cat := db.Catalog{}
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
	}
	return &retailerData{
		ds:      ds,
		cat:     cat,
		inv:     ds.Tuples["Inventory"],
		pos:     retWindow,
		weather: append([]data.Tuple(nil), ds.Tuples["Weather"]...),
		item:    append([]data.Tuple(nil), ds.Tuples["Item"]...),
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

// initial is the set-up load: every dimension row plus the first window
// of Inventory.
func (r *retailerData) initial() []db.Update {
	var out []db.Update
	for _, rel := range r.ds.Query.RelNames() {
		ts := r.ds.Tuples[rel]
		if rel == "Inventory" {
			ts = r.inv[:retWindow]
		}
		out = append(out, db.Insert(rel, ts...))
	}
	return out
}

// cyc returns inv[from:from+n] with indices taken modulo the list length.
// The DB adopts the slices it is handed; they are never written again.
func (r *retailerData) cyc(from, n int) []data.Tuple {
	l := len(r.inv)
	from %= l
	if from+n <= l {
		return r.inv[from : from+n : from+n]
	}
	out := make([]data.Tuple, 0, n)
	out = append(out, r.inv[from:]...)
	return append(out, r.inv[:n-(l-from)]...)
}

// next returns the next batch and its number of tuple operations: the next
// retInserts Inventory tuples, deletes of the tuples inserted one window
// earlier, and dimension row replacements.
func (r *retailerData) next() ([]db.Update, int) {
	ins := r.cyc(r.pos, retInserts)
	del := r.cyc(r.pos-retWindow, retInserts)
	r.pos += retInserts
	b := []db.Update{db.Insert("Inventory", ins...), db.Delete("Inventory", del...)}
	b = append(b, r.replace("Weather", r.weather, 2, []int{2, 2, 40, 20, 30, 2})...)
	if r.batches%itemEvery == 0 {
		b = append(b, r.replace("Item", r.item, 1, []int{20, 8, 4, 500})...)
	}
	r.batches++
	ops := 0
	for _, u := range b {
		ops += len(u.Tuples)
	}
	return b, ops
}

// replace swaps one random row of rows for a copy with fresh non-key
// attributes (keyCols leading key columns kept; the rest drawn below the
// given bounds).
func (r *retailerData) replace(rel string, rows []data.Tuple, keyCols int, bounds []int) []db.Update {
	i := r.rng.Intn(len(rows))
	old := rows[i]
	nu := make(data.Tuple, len(old))
	copy(nu, old[:keyCols])
	for j, b := range bounds {
		nu[keyCols+j] = data.Int(int64(r.rng.Intn(b)))
	}
	rows[i] = nu
	return []db.Update{db.Delete(rel, old), db.Insert(rel, nu)}
}

// cofactorLift lifts every variable into the cofactor ring (the paper's
// regression aggregates over all retailer attributes).
func cofactorLift(vars data.Schema) data.LiftFunc[ring.Triple] {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	return func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) }
}

// createCofactor registers the cofactor view (Triple ring, the paper's
// variable order) under name.
func createCofactor(d *db.DB, ds *datasets.Dataset, name string) error {
	_, err := db.CreateView[ring.Triple](d, name, ds.Query.Rename(name), ring.Cofactor{},
		cofactorLift(ds.Query.Vars()),
		db.ViewOptions{Order: func() *vorder.Order { return datasets.RetailerOrder() }, ComposeChains: true})
	return err
}

// retailerState is one set-up instance.
type retailerState struct {
	data *retailerData
	d    *db.DB
}

// setupRetailer generates the input, loads it and creates the views. It
// returns the per-view CreateView (backfill) times.
func setupRetailer(seed int64, tr *tracer) (*retailerState, map[string]float64, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	rd := genRetailer(seed)
	d, err := db.Open(rd.cat, db.Options{})
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("db.load", root)
	err = d.Apply(rd.initial())
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	backfill := map[string]float64{}
	timed := func(name string, create func() error) error {
		sp := tr.begin("ivm.backfill."+name, root)
		t0 := time.Now()
		err := create()
		backfill[name] = time.Since(t0).Seconds()
		tr.end(sp)
		return err
	}
	if err := timed("cofactor", func() error { return createCofactor(d, rd.ds, "cofactor") }); err != nil {
		return nil, nil, err
	}
	for _, v := range sqlViews {
		if err := timed(v.name, func() error { _, err := db.CreateViewSQL(d, v.name, v.sql, db.ViewOptions{}); return err }); err != nil {
			return nil, nil, err
		}
	}
	return &retailerState{data: rd, d: d}, backfill, nil
}

func runRetailer(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	backfill := map[string]samples{}
	st, setupTimes, err := repeatSetup(retailerSetups, func() (*retailerState, error) {
		s, bf, err := setupRetailer(cfg.seed, tr)
		for v, t := range bf {
			backfill[v] = append(backfill[v], t)
		}
		return s, err
	}, func(s *retailerState) { s.d.Close() })
	if err != nil {
		return nil, err
	}
	defer st.d.Close()
	d := st.d
	for v := range backfill {
		backfill[v] = backfill[v][1:] // drop the warm-up set-up
	}

	// Warm up with a fixed number of batches (not timed) and take the
	// heap there: the live heap grows with the number of applied batches,
	// so a fixed-time window would tie it to throughput.
	for i := 0; i < retWarmBatches; i++ {
		b, _ := st.data.next()
		o.attempted++
		if err := d.Apply(b); err != nil {
			return nil, fmt.Errorf("warm-up apply: %w", err)
		}
	}
	heap := liveHeap()

	var lat samples
	ops := 0
	prevMaintain := map[string]time.Duration{}
	for _, v := range viewNames {
		prevMaintain[v] = d.ViewStatsOf(v).Maintain
	}
	start := time.Now()
	tput := newThroughput(start, cfg.window())
	for time.Since(start) < cfg.window() {
		b, n := st.data.next()
		o.attempted++
		t0 := time.Now()
		err := d.Apply(b)
		t1 := time.Now()
		if err != nil {
			o.failed++
			return nil, fmt.Errorf("apply: %w", err)
		}
		lat.addDur(t1.Sub(t0))
		tput.add(t1, n)
		ops += n
		if tr.on() {
			traceRetailerBatch(tr, d, t0, t1, prevMaintain)
		}
	}
	elapsed := time.Since(start)

	o.e2e.set("setup_s", setupTimes.median(), "s", len(setupTimes))
	o.e2e.set("ingest_tps", tput.rate(), "1/s", throughputSlices)
	if !o.e2e.setPcts("batch", lat, "ms", 1e6) {
		o.invalid = append(o.invalid, fmt.Sprintf("only %d batches: too few for a tail percentile", len(lat)))
	}
	o.e2e.set("heap_bytes", heap, "bytes", 1)
	o.info["heap_after_batches"] = retWarmBatches
	o.info["heap_end_bytes"] = liveHeap()
	runtime.KeepAlive(st)
	o.info["batch_tuple_ops"] = float64(ops) / float64(len(lat))
	o.info["window_tuples"] = retWindow
	o.info["loop"] = "closed, one writer"

	if tr.on() {
		retailerLayers(o, tr, d, backfill, elapsed)
	}
	checkRetailer(o, d, st.data.ds)
	o.e2e.set("error_rate", float64(o.failed)/float64(o.attempted), "ratio", int(o.attempted))
	return o, nil
}

// traceRetailerBatch records one applied batch's spans: the DB.Apply call,
// each view's share of it (derived from the cumulative ViewStats.Maintain
// counters, laid end to end inside the Apply span), and the tracer's own
// reads so that they can be subtracted from the wall time.
func traceRetailerBatch(tr *tracer, d *db.DB, t0, t1 time.Time, prev map[string]time.Duration) {
	id := tr.record("db.Apply", 0, t0, t1, false)
	rs := time.Now()
	cursor := t0
	for _, v := range viewNames {
		m := d.ViewStatsOf(v).Maintain
		delta := m - prev[v]
		prev[v] = m
		tr.record("ivm.maintain."+v, id, cursor, cursor.Add(delta), true)
		cursor = cursor.Add(delta)
	}
	tr.record("trace.self", 0, rs, time.Now(), false)
}

// retailerLayers fills the per-layer metrics from the traced run's spans.
func retailerLayers(o *outcome, tr *tracer, d *db.DB, backfill map[string]samples, elapsed time.Duration) {
	apply := tr.durations("db.Apply")
	o.layer.setPcts("db.apply", apply, "ns", 1)
	o.layer.set("db.self_p50_ns", tr.selfTimes("db.Apply").median(), "ns", len(apply))
	mem := float64(d.MemoryBytes())
	o.layer.set("db.mem_bytes", mem, "bytes", 1)
	viewBytes := 0.0
	maintainSum := 0.0
	for _, v := range viewNames {
		m := tr.durations("ivm.maintain." + v)
		maintainSum += m.sum()
		o.layer.set("ivm.maintain_p50_ns."+v, m.median(), "ns", len(m))
		tv, pct, _ := m.tail()
		o.layer["ivm.maintain_p99_ns."+v] = metric{Value: tv, Unit: "ns", Samples: len(m), Pct: pct}
		vs := d.ViewStatsOf(v)
		o.layer.set("ivm.view_count."+v, float64(vs.ViewCount), "count", 1)
		o.layer.set("ivm.view_bytes."+v, float64(vs.MemoryBytes), "bytes", 1)
		o.layer.set("ivm.backfill_s."+v, backfill[v].median(), "s", len(backfill[v]))
		viewBytes += float64(vs.MemoryBytes)
	}
	o.layer.set("data.store_bytes", mem-viewBytes, "bytes", 1)
	// Reconciliation: summed DB.Apply time against the stream's wall time
	// net of the tracer's own work, and summed per-view maintenance
	// against summed DB.Apply.
	self := tr.durations("trace.self").sum()
	o.layer.set("reconcile.apply_coverage", apply.sum()/(float64(elapsed.Nanoseconds())-self), "ratio", len(apply))
	o.layer.set("reconcile.maintain_over_apply", maintainSum/apply.sum(), "ratio", len(apply))
	if maintainSum > apply.sum() {
		o.checkf("summed view maintenance %.0f ns exceeds summed DB.Apply %.0f ns", maintainSum, apply.sum())
	}
}

// checkRetailer compares every maintained view with a fresh view of the
// same query backfilled from the final base relations: exactly for the
// SQL views, within a relative tolerance for the cofactor floats.
func checkRetailer(o *outcome, d *db.DB, ds *datasets.Dataset) {
	const relTol = 1e-9
	if err := createCofactor(d, ds, "check_cofactor"); err != nil {
		o.checkf("cofactor backfill: %v", err)
	} else if err := compareViews(d, "cofactor", "check_cofactor", ring.Cofactor{}.Zero(),
		func(a, b ring.Triple) bool { return triplesClose(a, b, relTol) }); err != nil {
		o.checkf("cofactor (tolerance %g): %v", relTol, err)
	}
	for _, v := range sqlViews {
		if _, err := db.CreateViewSQL(d, "check_"+v.name, v.sql, db.ViewOptions{}); err != nil {
			o.checkf("%s backfill: %v", v.name, err)
			continue
		}
		if err := compareViews(d, v.name, "check_"+v.name, 0, func(a, b float64) bool { return a == b }); err != nil {
			o.checkf("%s: %v", v.name, err)
		}
	}
	o.info["checked"] = "each view equals a fresh backfilled view (SQL exact, cofactor rel. tol 1e-9)"
}

// compareViews checks that two views of one epoch hold equal payloads for
// every key; a key absent from one side compares against zero.
func compareViews[P any](d *db.DB, a, b string, zero P, eq func(x, y P) bool) error {
	e := d.Epoch()
	sa, sb := db.SnapshotOf[P](e, a), db.SnapshotOf[P](e, b)
	if sa == nil || sb == nil {
		return fmt.Errorf("view %q or %q missing from the epoch", a, b)
	}
	return compareSnapshots(sa.Result(), sb.Result(), zero, eq)
}

func compareSnapshots[P any](ra, rb *data.RelationSnapshot[P], zero P, eq func(x, y P) bool) error {
	var err error
	cmp := func(x, y *data.RelationSnapshot[P], swap bool) {
		x.Iterate(func(t data.Tuple, p P) bool {
			q, ok := y.Get(t)
			if !ok {
				q = zero
			}
			l, r := p, q
			if swap {
				l, r = q, p
			}
			if !eq(l, r) {
				err = fmt.Errorf("key %v: %v != %v", t, l, r)
				return false
			}
			return true
		})
	}
	if cmp(ra, rb, false); err == nil {
		cmp(rb, ra, true)
	}
	return err
}

// triplesClose compares two cofactor triples component by component,
// absent components reading as zero, each within relTol of the larger
// magnitude (and an absolute floor of relTol for values near zero).
func triplesClose(a, b ring.Triple, relTol float64) bool {
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= relTol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	if !close(a.C, b.C) {
		return false
	}
	dense := func(t ring.Triple) (map[int32]float64, map[[2]int32]float64) {
		s := map[int32]float64{}
		q := map[[2]int32]float64{}
		k := len(t.Vars)
		for i, vi := range t.Vars {
			s[vi] = t.S[i]
			for j, vj := range t.Vars {
				q[[2]int32{vi, vj}] = t.Q[i*k+j]
			}
		}
		return s, q
	}
	sa, qa := dense(a)
	sb, qb := dense(b)
	for k := range sb {
		if _, ok := sa[k]; !ok {
			sa[k] = 0
		}
	}
	for k, x := range sa {
		if !close(x, sb[k]) {
			return false
		}
	}
	for k := range qb {
		if _, ok := qa[k]; !ok {
			qa[k] = 0
		}
	}
	for k, x := range qa {
		if !close(x, qb[k]) {
			return false
		}
	}
	return true
}
