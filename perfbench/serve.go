package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
	"fivm/internal/netserve"
	"fivm/internal/replica"
	"fivm/internal/serve"
	"fivm/internal/wal"
)

// serve-mixed offered load: fixed rates, about an eighth of what one
// connection sustains in a closed loop on a 2-core Xeon (see README.md).
// At a quarter, latency medians moved by more than 25% from run to run on
// a shared 2-core machine, and some runs could not keep the schedule.
const (
	lookupRate = 2000 // GET /lookup per second, on the read connection
	scanRate   = 100  // GET /scan per second (prefix, limit=64), same connection
	applyRate  = 50   // POST /apply batches per second, on the write connection
	scanLimit  = 64
	// absentShare of lookups ask for a key that never exists.
	absentShare = 0.1
	// checkpointEvery applied batches the primary writes a checkpoint.
	checkpointEvery = 400
	// pollEvery spaces the observer's reads of the follower's epoch and
	// the queue length.
	pollEvery = 200 * time.Microsecond
	// A run whose generator ends the window this far behind (the median
	// lateness of its last tenth of requests) had a growing backlog: the
	// offered load was not sustained and the run is reported invalid.
	// Transient stalls do not count; requests are timed from their due
	// times, so they are charged to latency.
	maxBacklog = 100 * time.Millisecond
	queueDepth = 64
	// serveSetups timed set-ups (about 0.05 s each) give setup_s.
	serveSetups = 31
)

const lookupView = "units_by_locn_ksn"

// serveState is one set-up instance: a durable primary with the SQL views,
// its ingest queue and HTTP server, and an in-memory replication follower.
type serveState struct {
	data     *retailerData
	dir      string
	fs       wal.VFS
	d        *db.DB
	q        *db.ApplyQueue
	srv      *netserve.Server
	base     string
	prim     *replica.Primary
	fol      *replica.Follower
	folStop  context.CancelFunc
	folDone  chan struct{}
	srvDone  chan struct{}
	shutOnce sync.Once
}

func durability(dir string, fs wal.VFS) *db.DurabilityOptions {
	return &db.DurabilityOptions{Dir: dir, FS: fs, Fsync: wal.FsyncAlways, CheckpointEvery: checkpointEvery}
}

func setupServe(cfg config, tr *tracer) (*serveState, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	rd := genRetailer(cfg.seed)
	dir, err := os.MkdirTemp(cfg.dir, "serve-wal-*")
	if err != nil {
		return nil, err
	}
	s := &serveState{data: rd, dir: dir}
	if tr.on() {
		s.fs = &timingFS{inner: wal.OSFS{}, tr: tr}
	}
	fail := func(err error) (*serveState, error) {
		s.shutdown()
		return nil, err
	}
	if s.d, err = db.Open(rd.cat, db.Options{Durability: durability(dir, s.fs)}); err != nil {
		return fail(err)
	}
	sp := tr.begin("db.load", root)
	err = s.d.Apply(rd.initial())
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	for _, v := range sqlViews {
		sp := tr.begin("ivm.backfill."+v.name, root)
		_, err := db.CreateViewSQL(s.d, v.name, v.sql, db.ViewOptions{})
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
	}
	s.q = db.NewApplyQueue(s.d, queueDepth)
	if s.srv, err = netserve.New(netserve.Config{DB: func() *db.DB { return s.d }, Queue: s.q}); err != nil {
		return fail(err)
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s.base = "http://" + hl.Addr().String()
	var lis net.Listener = hl
	if tr.on() {
		lis = &residenceListener{Listener: hl, tr: tr}
	}
	s.srvDone = make(chan struct{})
	go func() { defer close(s.srvDone); _ = s.srv.Serve(lis) }()

	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	if s.prim, err = replica.NewPrimary(s.d, rl); err != nil {
		rl.Close()
		return fail(err)
	}
	go func() { _ = s.prim.Serve() }()
	fcfg := replica.FollowerConfig{Primary: rl.Addr().String(), Catalog: rd.cat}
	if tr.on() {
		fcfg.Dial = countingDial(tr)
	}
	if s.fol, err = replica.NewFollower(fcfg); err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.folStop, s.folDone = cancel, make(chan struct{})
	go func() { defer close(s.folDone); _ = s.fol.Run(ctx) }()
	if err := waitApplied(s.fol, s.d.Epoch().Applied, 30*time.Second); err != nil {
		return fail(err)
	}
	return s, nil
}

// shutdown stops the server, queue, replication and the primary, in that
// order, and waits for their goroutines. Safe to call more than once.
func (s *serveState) shutdown() error {
	var err error
	s.shutOnce.Do(func() {
		if s.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err = errors.Join(err, s.srv.Shutdown(ctx))
			cancel()
			<-s.srvDone
		}
		if s.q != nil {
			err = errors.Join(err, s.q.Close())
		}
		if s.fol != nil {
			s.folStop()
			err = errors.Join(err, s.fol.Close())
			<-s.folDone
		}
		if s.prim != nil {
			err = errors.Join(err, s.prim.Close())
		}
		if s.d != nil {
			err = errors.Join(err, s.d.Close())
		}
	})
	return err
}

func (s *serveState) remove() {
	_ = s.shutdown()
	_ = os.RemoveAll(s.dir)
}

func waitApplied(f *replica.Follower, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.DB().Epoch().Applied < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at applied=%d, want %d", f.DB().Epoch().Applied, want)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// request is one scheduled HTTP request of the open loop.
type request struct {
	due    time.Duration // offset from the start of the window
	route  string        // "lookup", "scan" or "apply"
	url    string
	body   []byte
	absent bool // a lookup of a key that never exists
	ops    int  // tuple operations in an apply
}

// schedule builds both connections' request lists for the window: reads at
// fixed intervals (every lookupRate/scanRate-th one a scan) and applies at
// fixed intervals, each apply the next batch of the retailer stream. Lookup
// keys are drawn uniformly per group-by column, in the view's result schema
// order (the optimizer picks it); an absent key has a store number no store
// has. A scan's prefix binds the first column.
func schedule(s *serveState, seed int64, window time.Duration) (reads, writes []request, err error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	cfg := retailerSize
	domain := map[string]int{"locn": cfg.Locations, "ksn": cfg.Items, "dateid": cfg.Dates}
	sch := db.SnapshotOf[float64](s.d.Epoch(), lookupView).Result().Schema()
	key := func(n int, absent bool) string {
		q := ""
		for _, col := range sch[:n] {
			v := rng.Intn(domain[col])
			if absent && col == "locn" {
				v += cfg.Locations
			}
			q += "key=" + strconv.Itoa(v) + "&"
		}
		return q
	}
	readEvery := time.Second / (lookupRate + scanRate)
	scanPeriod := (lookupRate + scanRate) / scanRate
	for i := 0; ; i++ {
		due := time.Duration(i) * readEvery
		if due >= window {
			break
		}
		if i%scanPeriod == scanPeriod-1 {
			reads = append(reads, request{due: due, route: "scan",
				url: fmt.Sprintf("%s/view/%s/scan?%slimit=%d", s.base, lookupView, key(1, false), scanLimit)})
			continue
		}
		absent := rng.Float64() < absentShare
		reads = append(reads, request{due: due, route: "lookup", absent: absent,
			url: fmt.Sprintf("%s/view/%s/lookup?%s", s.base, lookupView, strings.TrimSuffix(key(len(sch), absent), "&"))})
	}
	applyEvery := time.Second / applyRate
	for i := 0; ; i++ {
		due := time.Duration(i) * applyEvery
		if due >= window {
			break
		}
		b, ops := s.data.next()
		body, err := applyBody(b)
		if err != nil {
			return nil, nil, err
		}
		writes = append(writes, request{due: due, route: "apply", url: s.base + "/apply", body: body, ops: ops})
	}
	return reads, writes, nil
}

func applyBody(b []db.Update) ([]byte, error) {
	type upd struct {
		Rel    string  `json:"rel"`
		Mult   int64   `json:"mult"`
		Tuples [][]any `json:"tuples"`
	}
	req := struct {
		Updates []upd `json:"updates"`
	}{}
	for _, u := range b {
		x := upd{Rel: u.Rel, Mult: u.Mult}
		for _, t := range u.Tuples {
			row := make([]any, len(t))
			for i, v := range t {
				row[i] = v.AsInt()
			}
			x.Tuples = append(x.Tuples, row)
		}
		req.Updates = append(req.Updates, x)
	}
	return json.Marshal(req)
}

// genStats is what one open-loop generator measured. errs describe
// failed and refused requests; wrongs describe wrong answers.
type genStats struct {
	lat      map[string]samples // from due time to response, per route
	rtt      map[string]samples // from send to response, per route
	late     samples            // send time minus due time
	acks     []ack              // applies: acknowledged applied counts
	failed   int64
	refused  int64
	wrong    int64
	attempts int64
	errs     []string
	wrongs   []string
}

type ack struct {
	applied  uint64
	sent, at time.Time
	ops      int
}

// generate sends reqs on one keep-alive connection at their due times and
// times each from its due time (so a stall also charges the requests
// queued behind it).
func generate(client *http.Client, reqs []request, start time.Time) *genStats {
	g := &genStats{lat: map[string]samples{}, rtt: map[string]samples{}}
	for _, r := range reqs {
		due := start.Add(r.due)
		if wait := time.Until(due); wait > 0 {
			preciseSleep(wait)
		}
		sent := time.Now()
		g.late = append(g.late, float64(sent.Sub(due)))
		g.attempts++
		var resp *http.Response
		var err error
		if r.body != nil {
			resp, err = client.Post(r.url, "application/json", bytes.NewReader(r.body))
		} else {
			resp, err = client.Get(r.url)
		}
		if err != nil {
			g.failed++
			g.errs = append(g.errs, err.Error())
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done := time.Now()
		switch {
		case err != nil:
			g.failed++
			g.errs = append(g.errs, err.Error())
			continue
		case resp.StatusCode == http.StatusTooManyRequests:
			g.refused++
			continue
		case resp.StatusCode != http.StatusOK:
			g.failed++
			g.errs = append(g.errs, fmt.Sprintf("%s: HTTP %d: %s", r.route, resp.StatusCode, body))
			continue
		}
		g.lat[r.route] = append(g.lat[r.route], float64(done.Sub(due)))
		g.rtt[r.route] = append(g.rtt[r.route], float64(done.Sub(sent)))
		switch r.route {
		case "lookup":
			var lr struct {
				Found bool `json:"found"`
			}
			if json.Unmarshal(body, &lr) != nil || (r.absent && lr.Found) {
				g.wrong++
				g.wrongs = append(g.wrongs, fmt.Sprintf("lookup %s: %s", r.url, body))
			}
		case "apply":
			var ar struct {
				Applied uint64 `json:"applied"`
			}
			if json.Unmarshal(body, &ar) != nil {
				g.wrong++
				g.wrongs = append(g.wrongs, fmt.Sprintf("apply: malformed response %s", body))
				continue
			}
			g.acks = append(g.acks, ack{applied: ar.Applied, sent: sent, at: done, ops: r.ops})
		}
	}
	return g
}

// observer polls the follower's epoch and the ingest queue's length. For
// each applied count k it keeps the publication time of the first follower
// epoch it sees at or beyond k, so every acknowledged batch gets a
// replication-lag sample. An epoch the poll skips (the follower published
// twice within one interval) charges its batches the later epoch's time.
type observer struct {
	fol   *replica.Follower
	q     *db.ApplyQueue
	seen  map[uint64]time.Time
	depth samples
	last  uint64
}

// run polls until stop is closed, then once more.
func (o *observer) run(stop <-chan struct{}) {
	for {
		o.poll()
		select {
		case <-stop:
			o.poll()
			return
		default:
		}
		preciseSleep(pollEvery)
	}
}

func (o *observer) poll() {
	e := o.fol.DB().Epoch()
	for k := o.last + 1; k <= e.Applied; k++ {
		o.seen[k] = e.At
	}
	o.last = max(o.last, e.Applied)
	o.depth = append(o.depth, float64(o.q.Len()))
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func runServe(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	st, setupTimes, err := repeatSetup(serveSetups, func() (*serveState, error) { return setupServe(cfg, tr) },
		func(s *serveState) { s.remove() })
	if err != nil {
		return nil, err
	}
	defer st.remove()

	window := cfg.window()
	reads, writes, err := schedule(st, cfg.seed, window)
	if err != nil {
		return nil, err
	}
	readClient, writeClient := newClient(), newClient()
	defer readClient.CloseIdleConnections()
	defer writeClient.CloseIdleConnections()
	// Open both connections before the window starts.
	for _, c := range []*http.Client{readClient, writeClient} {
		resp, err := c.Get(st.base + "/healthz")
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	obs := &observer{fol: st.fol, q: st.q, seen: map[uint64]time.Time{}, last: st.fol.DB().Epoch().Applied}
	stopObs := make(chan struct{})
	obsDone := make(chan struct{})
	go func() { defer close(obsDone); obs.run(stopObs) }()

	// Per-layer figures count only what happens from here on, not the
	// set-ups before.
	var win mark
	if tr.on() {
		win = tr.mark()
	}
	start := time.Now().Add(10 * time.Millisecond)
	var rg, wg *genStats
	var gens sync.WaitGroup
	gens.Add(2)
	go func() { defer gens.Done(); rg = generate(readClient, reads, start) }()
	go func() { defer gens.Done(); wg = generate(writeClient, writes, start) }()
	gens.Wait()

	// Drain: the follower catches up with everything acknowledged.
	want := st.d.Epoch().Applied
	drainErr := waitApplied(st.fol, want, 30*time.Second)
	close(stopObs)
	<-obsDone
	if drainErr != nil {
		o.checkf("drain: %v", drainErr)
	}

	o.attempted = rg.attempts + wg.attempts
	o.failed = rg.failed + rg.refused + rg.wrong + wg.failed + wg.refused + wg.wrong
	if errs := append(rg.errs, wg.errs...); len(errs) > 0 {
		o.info["request_errors"] = errs[:min(len(errs), 5)]
	}
	for _, w := range append(rg.wrongs, wg.wrongs...)[:min(len(rg.wrongs)+len(wg.wrongs), 5)] {
		o.checkf("wrong answer: %s", w)
	}

	// Replication lag, signed: negative when the follower published the
	// batch before its acknowledgement reached the client.
	var lag samples
	followerFirst := 0
	for _, a := range wg.acks {
		seen, ok := obs.seen[a.applied]
		if !ok {
			o.checkf("batch %d acknowledged but never seen on the follower", a.applied)
			continue
		}
		d := seen.Sub(a.at)
		if d < 0 {
			followerFirst++
		}
		lag.addDur(d)
	}

	o.e2e.set("setup_s", setupTimes.median(), "s", len(setupTimes))
	// The open loop offers a fixed rate, so the acknowledged rate is
	// measured to the last acknowledgement: it falls below the offered
	// rate only when the server falls behind, and then the run is invalid.
	// So on this workload ingest_tps is fixed by construction, and no gate
	// covers netserve, wal or replica (see README.md).
	ops, last := 0, start
	for _, a := range wg.acks {
		ops, last = ops+a.ops, a.at
	}
	o.e2e.set("ingest_tps", float64(ops)/last.Sub(start).Seconds(), "1/s", len(wg.acks))
	tailOK := o.e2e.setPcts("batch", wg.lat["apply"], "ms", 1e6)
	tailOK = o.e2e.setPcts("lookup", rg.lat["lookup"], "ms", 1e6) && tailOK
	tailOK = o.e2e.setPcts("scan", rg.lat["scan"], "ms", 1e6) && tailOK
	tailOK = o.e2e.setPcts("replica_lag", lag, "ms", 1e6) && tailOK
	if !tailOK {
		o.invalid = append(o.invalid, "too few samples for a tail percentile")
	}

	// Generator lateness (send time minus due time), per connection.
	lateness := map[string]any{}
	for name, g := range map[string]*genStats{"read": rg, "write": wg} {
		backlog := time.Duration(g.late[len(g.late)*9/10:].median())
		p99, _, _ := g.late.tail()
		lateness[name] = map[string]float64{"p50_ms": g.late.median() / 1e6, "p99_ms": p99 / 1e6,
			"max_ms": g.late.max() / 1e6, "last_tenth_p50_ms": float64(backlog) / 1e6}
		if backlog > maxBacklog {
			o.invalid = append(o.invalid, fmt.Sprintf("%s generator still %v late over its last tenth of requests: the offered load was not sustained",
				name, backlog))
		}
	}
	o.info["generator_lateness"] = lateness
	o.info["rates_per_s"] = map[string]int{"lookup": lookupRate, "scan": scanRate, "apply": applyRate}
	o.info["fsync"] = wal.FsyncAlways.String()
	o.info["checkpoint_every"] = checkpointEvery
	o.info["poll_interval_us"] = pollEvery.Microseconds()
	o.info["replica_lag_follower_first_samples"] = followerFirst
	o.info["refused_429"] = rg.refused + wg.refused
	o.info["wrong_answers"] = rg.wrong + wg.wrong
	o.info["loop"] = "open, fixed rates; 1 read and 1 write connection"
	o.info["acked_batches"] = len(wg.acks)
	o.info["lookup_view_schema"] = db.SnapshotOf[float64](st.d.Epoch(), lookupView).Result().Schema()

	// Per-layer figures first, so that the check's lookups below do not
	// mix into the traffic's server residence spans.
	if tr.on() {
		serveLayers(o, win, st, rg, wg, obs)
	}
	checkServe(o, st, readClient)
	o.e2e.set("heap_bytes", liveHeap(), "bytes", 1)

	// Close the primary and recover it from its WAL directory.
	pre := map[string]map[string]float64{}
	e := st.d.Epoch()
	for _, v := range sqlViews {
		pre[v.name] = viewContents(db.SnapshotOf[float64](e, v.name).Result())
	}
	if err := st.shutdown(); err != nil {
		o.checkf("closing the primary: %v", err)
	}
	var recWin mark
	if tr.on() {
		recWin = tr.mark()
	}
	sp := tr.begin("db.Open(recover)", 0)
	t0 := time.Now()
	rec, err := db.Open(st.data.cat, db.Options{Durability: durability(st.dir, st.fs)})
	recoverS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer rec.Close()
	o.e2e.set("recover_s", recoverS, "s", 1)
	if ri := rec.Recovery(); ri != nil {
		o.info["recovered_replayed_batches"] = ri.ReplayedBatches
		if tr.on() {
			o.layer.set("wal.replayed_batches", float64(ri.ReplayedBatches), "count", 1)
			o.layer.set("wal.recover_read_bytes", recWin.counter("wal.read_bytes"), "bytes", 1)
		}
	}
	re := rec.Epoch()
	for _, v := range sqlViews {
		s := db.SnapshotOf[float64](re, v.name)
		if s == nil {
			o.checkf("recovered primary lacks view %s", v.name)
			continue
		}
		if err := sameContents(pre[v.name], viewContents(s.Result())); err != nil {
			o.checkf("recovered %s differs from the pre-close view: %v", v.name, err)
		}
	}
	o.e2e.set("error_rate", float64(o.failed)/float64(o.attempted), "ratio", int(o.attempted))
	return o, nil
}

// checkServe runs the post-drain output checks: every key's HTTP lookup
// equals the in-process reader at the same epoch, and the follower's views
// equal the primary's at equal applied counts.
func checkServe(o *outcome, st *serveState, client *http.Client) {
	e := st.d.Epoch()
	for _, v := range sqlViews {
		snap := db.SnapshotOf[float64](e, v.name)
		rd := serve.NewPinned(snap)
		var mismatch error
		rd.Scan(nil, func(t data.Tuple, p float64) bool {
			url := fmt.Sprintf("%s/view/%s/lookup?key=%d&key=%d", st.base, v.name, t[0].AsInt(), t[1].AsInt())
			mismatch = checkLookup(client, url, e.Seq, p)
			return mismatch == nil
		})
		if mismatch != nil {
			o.failed++
			o.checkf("%s: HTTP lookup differs from the in-process reader: %v", v.name, mismatch)
		}
		fe := st.fol.DB().Epoch()
		fs := db.SnapshotOf[float64](fe, v.name)
		switch {
		case fe.Applied != e.Applied:
			o.checkf("follower at applied=%d, primary at %d", fe.Applied, e.Applied)
		case fs == nil:
			o.checkf("follower lacks view %s", v.name)
		default:
			if err := compareSnapshots(snap.Result(), fs.Result(), 0, func(a, b float64) bool { return a == b }); err != nil {
				o.checkf("follower %s differs from the primary: %v", v.name, err)
			}
		}
	}
	o.info["checked"] = "post-drain HTTP lookups of every key equal the in-process reader; follower views equal the primary's; recovered views equal the pre-close ones"
}

func checkLookup(client *http.Client, url string, seq uint64, want float64) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var lr struct {
		Found bool    `json:"found"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return err
	}
	if got := resp.Header.Get("X-Fivm-Epoch"); got != strconv.FormatUint(seq, 10) {
		return fmt.Errorf("%s: served epoch %s, want %d", url, got, seq)
	}
	if !lr.Found || lr.Value != want {
		return fmt.Errorf("%s: got found=%v value=%v, want %v", url, lr.Found, lr.Value, want)
	}
	return nil
}

func viewContents(r *data.RelationSnapshot[float64]) map[string]float64 {
	out := make(map[string]float64, r.Len())
	r.Iterate(func(t data.Tuple, p float64) bool {
		out[string(t.AppendKey(nil))] = p
		return true
	})
	return out
}

func sameContents(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d keys vs %d", len(a), len(b))
	}
	for k, x := range a {
		if y, ok := b[k]; !ok || x != y {
			return fmt.Errorf("key %q: %v vs %v", k, x, y)
		}
	}
	return nil
}

// serveLayers fills the per-layer metrics of a traced serve-mixed run from
// the spans and counters of its measured window, which starts at win.
func serveLayers(o *outcome, win mark, st *serveState, rg, wg *genStats, obs *observer) {
	rtts := map[string]samples{"lookup": rg.rtt["lookup"], "scan": rg.rtt["scan"], "apply": wg.rtt["apply"]}
	for route, rtt := range rtts {
		res := win.durations("netserve." + route)
		o.layer.set("netserve."+route+"_server_p50_ns", res.median(), "ns", len(res))
		if len(rtt) > 0 && res.median() > rtt.median() {
			o.checkf("netserve %s: server residence p50 %.0f ns exceeds client round trip p50 %.0f ns",
				route, res.median(), rtt.median())
		}
	}
	res := win.durations("netserve.lookup")
	v, pct, _ := res.tail()
	o.layer["netserve.lookup_server_p99_ns"] = metric{Value: v, Unit: "ns", Samples: len(res), Pct: pct}
	o.layer.set("netserve.lookup_client_p50_ns", rtts["lookup"].median()-res.median(), "ns", len(rtts["lookup"]))
	o.info["lookup_rtt_p50_ns"] = rtts["lookup"].median()
	if n := len(res); n > 0 {
		o.layer.set("netserve.resp_bytes_per_lookup", win.counter("netserve.lookup.resp_bytes")/float64(n), "bytes", n)
	}
	if n := len(win.durations("netserve.apply")); n > 0 {
		o.layer.set("netserve.req_bytes_per_apply", win.counter("netserve.apply.req_bytes")/float64(n), "bytes", n)
	}

	// The in-process read path at the drained epoch, on the run's keys.
	e := st.d.Epoch()
	rd := serve.NewPinned(db.SnapshotOf[float64](e, lookupView))
	rng := rand.New(rand.NewSource(1))
	const group = 64
	var lk, sc samples
	for i := 0; i < 2000; i++ {
		keys := make([]data.Tuple, group)
		for j := range keys {
			keys[j] = data.Tuple{data.Int(int64(rng.Intn(retailerSize.Locations))), data.Int(int64(rng.Intn(retailerSize.Items)))}
		}
		t0 := time.Now()
		for _, k := range keys {
			rd.Lookup(k)
		}
		lk = append(lk, float64(time.Since(t0).Nanoseconds())/group)
		prefix := data.Tuple{keys[0][0]}
		t0 = time.Now()
		n := 0
		rd.Scan(prefix, func(data.Tuple, float64) bool { n++; return n < scanLimit })
		sc = append(sc, float64(time.Since(t0).Nanoseconds()))
	}
	o.layer.set("serve.lookup_p50_ns", lk.median(), "ns", len(lk)*group)
	o.layer.set("serve.scan_p50_ns", sc.median(), "ns", len(sc))

	// WAL.
	w, s := win.durations("wal.write"), win.durations("wal.sync")
	o.layer.setPcts("wal.write", w, "ns", 1)
	o.layer.setPcts("wal.sync", s, "ns", 1)
	o.layer.set("wal.syncs", float64(len(s)), "count", 1)
	tuples := 0
	for _, a := range wg.acks {
		tuples += a.ops
	}
	if tuples > 0 {
		o.layer.set("wal.bytes_per_tuple", win.counter("wal.segment_bytes")/float64(tuples), "bytes", tuples)
	}
	ck := win.durations("wal.checkpoint")
	o.layer.set("wal.checkpoints", float64(len(ck)), "count", 1)
	o.layer.set("wal.checkpoint_p50_ms", ck.median()/1e6, "ms", len(ck))
	o.layer.set("wal.checkpoint_bytes", win.counter("wal.checkpoint_bytes"), "bytes", len(ck))
	o.layer.set("wal.stalled_batches", float64(stalled(win, wg.acks)), "count", len(wg.acks))

	// Queue and replication.
	o.layer.set("db.queue_depth_p50", obs.depth.median(), "count", len(obs.depth))
	o.layer.set("db.queue_depth_max", obs.depth.max(), "count", len(obs.depth))
	o.layer.set("db.queue_full", float64(rg.refused+wg.refused), "count", int(wg.attempts))
	if n := len(wg.acks); n > 0 {
		o.layer.set("replica.bytes_per_batch", win.counter("replica.read_bytes")/float64(n), "bytes", n)
		o.layer.set("replica.reads_per_batch", win.counter("replica.reads")/float64(n), "count", n)
	}

	// Memory, read on the maintenance goroutine.
	_ = st.q.Do(func(d *db.DB) error {
		mem := float64(d.MemoryBytes())
		o.layer.set("db.mem_bytes", mem, "bytes", 1)
		for _, v := range sqlViews {
			vs := d.ViewStatsOf(v.name)
			o.layer.set("ivm.view_count."+v.name, float64(vs.ViewCount), "count", 1)
			o.layer.set("ivm.view_bytes."+v.name, float64(vs.MemoryBytes), "bytes", 1)
			mem -= float64(vs.MemoryBytes)
		}
		o.layer.set("data.store_bytes", mem, "bytes", 1)
		return nil
	})
}

// stalled counts the applies whose request interval overlapped a
// checkpoint.
func stalled(win mark, acks []ack) int {
	cks := win.named("wal.checkpoint")
	n := 0
	for _, a := range acks {
		lo, hi := win.t.ns(a.sent), win.t.ns(a.at)
		for _, c := range cks {
			if lo < c.End && c.Start < hi {
				n++
				break
			}
		}
	}
	return n
}
