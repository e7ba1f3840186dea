package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/factorized"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// Housing sizing: Init cost grows faster than linearly in the number of
// postcodes, so this is set for a set-up of about a second.
var housingSize = datasets.HousingConfig{Postcodes: 1000, Scale: 2}

const (
	housePerBatch     = 10  // inserts per ApplyDelta batch (plus as many deletes)
	houseWarmBatches  = 500 // untimed batches before the window; heap is taken after them
	housingStreamPart = 0.6 // share of the window spent on the update stream (the rest enumerates)
	housingSetups     = 7   // timed set-ups (about 1.2 s each) that give setup_s
)

// housingRels are the relations the stream slides a window over.
var housingRels = []string{"House", "Shop"}

// housingData is the generated star plus, per streamed relation, the live
// tuples in insertion order (the window) and the per-postcode multiset the
// output check's closed form is computed from.
type housingData struct {
	ds   *datasets.Dataset
	jq   query.Query
	rng  *rand.Rand
	live map[string][]data.Tuple // FIFO of live tuples per streamed relation
	// counts[rel][postcode][tuple key] is the live multiplicity.
	counts map[string]map[int64]map[string]int
	turn   int
}

func genHousing(seed int64) *housingData {
	cfg := housingSize
	cfg.Seed = seed
	ds := datasets.GenHousing(cfg)
	h := &housingData{
		ds:     ds,
		jq:     query.MustNew(ds.Query.Name+"_join", ds.Query.Vars(), ds.Query.Rels...),
		rng:    rand.New(rand.NewSource(seed ^ 0x40a5e)),
		live:   map[string][]data.Tuple{},
		counts: map[string]map[int64]map[string]int{},
	}
	for _, rel := range ds.Query.RelNames() {
		h.counts[rel] = map[int64]map[string]int{}
		for _, t := range ds.Tuples[rel] {
			h.note(rel, t, 1)
		}
	}
	for _, rel := range housingRels {
		h.live[rel] = append([]data.Tuple(nil), ds.Tuples[rel]...)
	}
	return h
}

func (h *housingData) note(rel string, t data.Tuple, m int) {
	pc := t[0].AsInt()
	byKey := h.counts[rel][pc]
	if byKey == nil {
		byKey = map[string]int{}
		h.counts[rel][pc] = byKey
	}
	k := string(t.AppendKey(nil))
	if byKey[k] += m; byKey[k] == 0 {
		delete(byKey, k)
	}
}

// next returns the next batch: housePerBatch fresh tuples of one streamed
// relation (alternating) and deletes of its housePerBatch oldest live ones.
func (h *housingData) next() (string, []data.Tuple, []data.Tuple) {
	rel := housingRels[h.turn%len(housingRels)]
	h.turn++
	rd, _ := h.jq.Rel(rel)
	ins := make([]data.Tuple, housePerBatch)
	for i := range ins {
		t := make(data.Tuple, len(rd.Schema))
		t[0] = data.Int(int64(h.rng.Intn(housingSize.Postcodes)))
		for j := 1; j < len(t); j++ {
			t[j] = data.Int(int64(h.rng.Intn(100)))
		}
		ins[i] = t
	}
	live := h.live[rel]
	del := live[:housePerBatch:housePerBatch]
	h.live[rel] = append(live[housePerBatch:], ins...)
	for _, t := range ins {
		h.note(rel, t, 1)
	}
	for _, t := range del {
		h.note(rel, t, -1)
	}
	return rel, ins, del
}

// closedForm returns the join's result size with multiplicities and its
// number of distinct tuples: the relations share only postcode, so both
// are sums over postcodes of per-relation products.
func (h *housingData) closedForm() (count, distinct int64) {
	for pc := 0; pc < housingSize.Postcodes; pc++ {
		c, dc := int64(1), int64(1)
		for _, rel := range h.ds.Query.RelNames() {
			byKey := h.counts[rel][int64(pc)]
			n := 0
			for _, m := range byKey {
				n += m
			}
			c *= int64(n)
			dc *= int64(len(byKey))
		}
		count += c
		distinct += dc
	}
	return count, distinct
}

// multRel builds a multiplicity relation of +1 inserts and -1 deletes.
func multRel(sch data.Schema, ins, del []data.Tuple) *data.Relation[int64] {
	r := data.NewRelation[int64](ring.Int{}, sch)
	r.Reserve(len(ins) + len(del))
	for _, t := range ins {
		r.Merge(t, 1)
	}
	for _, t := range del {
		r.Merge(t, -1)
	}
	return r
}

type housingState struct {
	data *housingData
	r    *factorized.Result
}

// setupHousing generates the star, loads it and runs Init, returning the
// Load and Init times in seconds.
func setupHousing(seed int64, tr *tracer) (*housingState, float64, float64, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	h := genHousing(seed)
	r, err := factorized.New(factorized.FactPayloads, h.jq, datasets.HousingOrder(), nil)
	if err != nil {
		return nil, 0, 0, err
	}
	sp := tr.begin("ivm.load", root)
	t0 := time.Now()
	for _, rel := range h.jq.RelNames() {
		rd, _ := h.jq.Rel(rel)
		if err := r.Load(rel, multRel(rd.Schema, h.ds.Tuples[rel], nil)); err != nil {
			return nil, 0, 0, err
		}
	}
	load := time.Since(t0).Seconds()
	tr.end(sp)
	sp = tr.begin("ivm.init", root)
	t1 := time.Now()
	err = r.Init()
	initS := time.Since(t1).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	// Enable snapshot publication, so the stream publishes epochs that
	// enumeration can pin.
	r.Snapshot()
	return &housingState{data: h, r: r}, load, initS, nil
}

func runHousing(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	var loads, inits samples
	st, setupTimes, err := repeatSetup(housingSetups, func() (*housingState, error) {
		s, l, i, err := setupHousing(cfg.seed, tr)
		loads, inits = append(loads, l), append(inits, i)
		return s, err
	}, func(*housingState) {})
	if err != nil {
		return nil, err
	}
	loads, inits = loads[1:], inits[1:] // drop the warm-up set-up
	r, h := st.r, st.data

	apply := func() (time.Duration, int, error) {
		rel, ins, del := h.next()
		rd, _ := h.jq.Rel(rel)
		bs := time.Now()
		delta := multRel(rd.Schema, ins, del)
		t0 := time.Now()
		err := r.ApplyDelta(rel, delta)
		t1 := time.Now()
		if tr.on() {
			tr.record("data.delta_build", 0, bs, t0, false)
			tr.record("ivm.ApplyDelta", 0, t0, t1, false)
		}
		return t1.Sub(t0), len(ins) + len(del), err
	}
	for i := 0; i < houseWarmBatches; i++ {
		o.attempted++
		if _, _, err := apply(); err != nil {
			return nil, fmt.Errorf("warm-up apply: %w", err)
		}
	}
	heap := liveHeap()

	var lat samples
	streamFor := time.Duration(float64(cfg.window()) * housingStreamPart)
	start := time.Now()
	tput := newThroughput(start, streamFor)
	for time.Since(start) < streamFor {
		o.attempted++
		d, n, err := apply()
		if err != nil {
			o.failed++
			return nil, fmt.Errorf("apply: %w", err)
		}
		lat.addDur(d)
		tput.add(time.Now(), n)
	}

	// Enumerate a pinned snapshot repeatedly; every pass must yield the
	// closed-form number of distinct tuples.
	wantCount, wantDistinct := h.closedForm()
	snap := r.Snapshot()
	var enumerated, passes int64
	enumStart := time.Now()
	for passes == 0 || time.Since(enumStart) < cfg.window()-streamFor {
		o.attempted++
		var n int64
		sp := tr.begin("factorized.Enumerate", 0)
		snap.Enumerate(func(data.Tuple) bool { n++; return true })
		tr.end(sp)
		if n != wantDistinct {
			o.failed++
			o.checkf("enumeration pass %d: %d tuples, closed form %d", passes, n, wantDistinct)
		}
		enumerated += n
		passes++
	}
	enumElapsed := time.Since(enumStart)

	o.e2e.set("setup_s", setupTimes.median(), "s", len(setupTimes))
	o.e2e.set("ingest_tps", tput.rate(), "1/s", throughputSlices)
	if !o.e2e.setPcts("batch", lat, "ms", 1e6) {
		o.invalid = append(o.invalid, fmt.Sprintf("only %d batches: too few for a tail percentile", len(lat)))
	}
	o.e2e.set("enum_tps", float64(enumerated)/enumElapsed.Seconds(), "1/s", int(passes))
	o.e2e.set("heap_bytes", heap, "bytes", 1)
	o.info["heap_after_batches"] = houseWarmBatches
	o.info["heap_end_bytes"] = liveHeap()
	o.info["result_distinct_tuples"] = wantDistinct
	o.info["enumeration_passes"] = passes
	o.info["loop"] = "closed, one writer; then enumeration of one pinned snapshot"
	runtime.KeepAlive(st)

	if tr.on() {
		o.layer.set("ivm.load_s", loads.median(), "s", len(loads))
		o.layer.set("ivm.init_s", inits.median(), "s", len(inits))
		o.layer.setPcts("ivm.apply", tr.durations("ivm.ApplyDelta"), "ns", 1)
		o.layer.set("data.fact_values", float64(r.SizeValues()), "count", 1)
		o.layer.set("data.fact_bytes", float64(r.MemoryBytes()), "bytes", 1)
		db := tr.durations("data.delta_build")
		o.layer.set("data.delta_build_p50_ns", db.median(), "ns", len(db))
	}

	if c := r.Count(); c != wantCount {
		o.checkf("Count() = %d, closed form %d", c, wantCount)
	}
	if dc := r.DistinctCount(); dc != wantDistinct {
		o.checkf("DistinctCount() = %d, closed form %d", dc, wantDistinct)
	}
	o.info["checked"] = "Count, DistinctCount and every enumeration pass equal the closed form"
	o.e2e.set("error_rate", float64(o.failed)/float64(o.attempted), "ratio", int(o.attempted))
	return o, nil
}
