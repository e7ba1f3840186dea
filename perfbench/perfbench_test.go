package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 3000; n += 1 + n/50 {
		var s samples
		for i := 0; i < n; i++ {
			s = append(s, rng.Float64())
		}
		v, pct, ok := s.tail()
		if ok != (n > minBeyond) {
			t.Fatalf("n=%d: ok=%v", n, ok)
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: %d samples beyond the reported tail (percentile %.3f)", n, beyond, pct)
		}
		if n >= 1000 && pct != 100*float64(rank(n, 99))/float64(n) {
			t.Fatalf("n=%d: reported percentile %.3f, want p99", n, pct)
		}
	}
}

func TestPercentileRanks(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if got := s.median(); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := s.pct(90); got != 5 {
		t.Fatalf("p90 = %v, want 5", got)
	}
}

// workloadE2E lists, per workload, the end-to-end metrics the report must
// carry, with their units.
var workloadE2E = map[string]map[string]string{
	"retailer-ingest": {"ingest_tps": "1/s"},
	"serve-mixed": {
		"lookup_p50_ms": "ms", "lookup_p99_ms": "ms", "scan_p50_ms": "ms", "scan_p99_ms": "ms",
		"replica_lag_p50_ms": "ms", "replica_lag_p99_ms": "ms", "recover_s": "s",
	},
	"housing-fact": {"ingest_tps": "1/s", "enum_tps": "1/s"},
}

var commonE2E = map[string]string{
	"setup_s": "s", "batch_p50_ms": "ms", "batch_p99_ms": "ms", "heap_bytes": "bytes", "error_rate": "ratio",
}

// layerMustMove are per-layer metrics each workload measures (nonzero).
var layerMustMove = map[string][]string{
	"retailer-ingest": {"db.apply_p50_ns", "db.self_p50_ns", "db.mem_bytes", "ivm.maintain_p50_ns.cofactor",
		"ivm.maintain_p50_ns.units_by_locn_ksn", "ivm.view_bytes.cofactor", "ivm.backfill_s.cofactor",
		"data.store_bytes", "reconcile.apply_coverage"},
	"serve-mixed": {"netserve.lookup_server_p50_ns", "netserve.scan_server_p50_ns", "netserve.apply_server_p50_ns",
		"netserve.resp_bytes_per_lookup", "netserve.req_bytes_per_apply", "serve.lookup_p50_ns", "wal.sync_p50_ns",
		"wal.syncs", "wal.bytes_per_tuple", "wal.replayed_batches", "wal.recover_read_bytes", "replica.bytes_per_batch",
		"db.mem_bytes"},
	"housing-fact": {"ivm.load_s", "ivm.init_s", "ivm.apply_p50_ns", "data.fact_values", "data.fact_bytes",
		"data.delta_build_p50_ns"},
}

type finalLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64
		Unit  string
	} `json:"metrics"`
}

// runShort runs one workload briefly and returns its report and final
// line, failing the test on a non-zero exit.
func runShort(t *testing.T, workload, trace string) (map[string]json.RawMessage, finalLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", trace, "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\nstderr:\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var fl finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fl); err != nil {
		t.Fatalf("final line: %v", err)
	}
	if !fl.Correct || fl.Failed != 0 || fl.Attempted < 1 {
		t.Fatalf("final line %+v", fl)
	}
	var rep struct {
		Report map[string]json.RawMessage `json:"report"`
	}
	for _, l := range lines {
		if strings.HasPrefix(l, `{"report"`) {
			if err := json.Unmarshal([]byte(l), &rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rep.Report == nil {
		t.Fatal("no report line")
	}
	return rep.Report, fl
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if raceEnabled && w.name == "serve-mixed" {
				t.Skip("the race detector slows the server below the offered load")
			}
			rep, fl := runShort(t, w.name, "1")
			var e2e map[string]metric
			if err := json.Unmarshal(rep["end_to_end"], &e2e); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for k, u := range commonE2E {
				want[k] = u
			}
			for k, u := range workloadE2E[w.name] {
				want[k] = u
			}
			for _, g := range gatedE2E {
				want[g.name] = g.unit
			}
			for k, u := range want {
				m, ok := e2e[k]
				if !ok || m.Unit != u || m.Samples < 1 {
					t.Errorf("end-to-end %s: got %+v, want unit %s", k, m, u)
				}
				// error_rate is 0 on a clean run; replication lag is
				// negative when the follower beats the acknowledgement.
				if k != "error_rate" && !strings.HasPrefix(k, "replica_lag") && m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", k, m.Value)
				}
			}
			for _, l := range layerMetrics {
				m, ok := fl.Metrics[l.name]
				if !ok || m.Unit != l.unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", l.name, m, l.unit)
				}
			}
			for _, g := range gatedE2E {
				if _, ok := fl.Metrics["trace.overhead."+g.name]; !ok {
					t.Errorf("no tracing overhead for %s", g.name)
				}
			}
			for _, name := range layerMustMove[w.name] {
				if fl.Metrics[name].Value <= 0 {
					t.Errorf("per-layer %s = %v, want > 0", name, fl.Metrics[name].Value)
				}
			}
			if w.name == "serve-mixed" {
				checkServeWindow(t, rep, fl)
			}
			if w.name == "retailer-ingest" {
				if c := fl.Metrics["reconcile.apply_coverage"].Value; c < 0.9 {
					t.Errorf("DB.Apply covers %.3f of the stream's wall time, want >= 0.9", c)
				}
				if r := fl.Metrics["reconcile.maintain_over_apply"].Value; r > 1 {
					t.Errorf("view maintenance is %.3f of DB.Apply, want <= 1", r)
				}
			}
		})
	}
}

// checkServeWindow checks that serve-mixed's WAL figures cover the
// measured window only: under fsync=always every acknowledged batch syncs
// once, and beyond that only segment rotations and checkpoints sync. The
// set-ups before the window (an initial load and two CREATE VIEWs each,
// repeated serveSetups+1 times) would add dozens of syncs.
func checkServeWindow(t *testing.T, rep map[string]json.RawMessage, fl finalLine) {
	var info struct {
		Acked int `json:"acked_batches"`
	}
	if err := json.Unmarshal(rep["info"], &info); err != nil {
		t.Fatal(err)
	}
	syncs, ckpts := int(fl.Metrics["wal.syncs"].Value), int(fl.Metrics["wal.checkpoints"].Value)
	if info.Acked == 0 || syncs < info.Acked || syncs > info.Acked+2*ckpts+2 {
		t.Errorf("%d WAL syncs in the window for %d acknowledged batches and %d checkpoints", syncs, info.Acked, ckpts)
	}
}

func TestUntracedLineCarriesGatedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	_, fl := runShort(t, "retailer-ingest", "0")
	if len(fl.Metrics) != len(gatedE2E) {
		t.Fatalf("%d metrics, want %d", len(fl.Metrics), len(gatedE2E))
	}
	for _, g := range gatedE2E {
		if m := fl.Metrics[g.name]; m.Unit != g.unit || m.Value <= 0 {
			t.Errorf("%s: %+v", g.name, m)
		}
	}
}

func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads %v, command has %v", names, have)
	}
	var e2e, layer []m
	for _, g := range gatedE2E {
		e2e = append(e2e, m{g.name, g.unit})
	}
	for _, l := range layerMetrics {
		layer = append(layer, m{l.name, l.unit})
	}
	for _, g := range gatedE2E {
		layer = append(layer, m{"trace.overhead." + g.name, g.unit})
	}
	if got, want := jsonOf(bj.EndToEnd), jsonOf(e2e); got != want {
		t.Errorf("end_to_end\n got %s\nwant %s", got, want)
	}
	if got, want := jsonOf(bj.PerLayer), jsonOf(layer); got != want {
		t.Errorf("per_layer\n got %s\nwant %s", got, want)
	}
}

func jsonOf(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
