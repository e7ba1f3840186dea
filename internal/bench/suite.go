package bench

import (
	"runtime"
	"time"

	"fivm/internal/datasets"
	"fivm/internal/wal"
)

// SuiteConfig sizes the continuous-benchmark suite (`fivm bench`). The
// committed baselines (BENCH_<n>.json) and every CI run must use the same
// config — benchdiff compares absolute numbers, so differing scales would
// read as regressions. DefaultSuite is therefore deliberately small: the
// suite exists to catch relative slowdowns on every change, not to
// reproduce the paper's figures (use the individual experiments for that).
type SuiteConfig struct {
	Retailer  datasets.RetailerConfig
	Twitter   datasets.TwitterConfig
	BatchSize int
	// Timeout bounds each strategy run; a timed-out entry is recorded with
	// status "timeout" and skipped as a comparison baseline.
	Timeout time.Duration
	// Workers is the shard count for parallel maintenance (default 1).
	Workers int
	// Readers is the snapshot-reader count for the mixed scenario.
	Readers int
	// Views is the view count for the multiview scenario.
	Views int
	// WALDir is the parent directory for the fig7wal scenario's WAL files;
	// empty (the committed-baseline setting) uses the system temp dir. The
	// scenario always runs — a baseline row missing from a run reads as a
	// regression to benchdiff.
	WALDir string
	// WALFsync is the fig7wal sync policy. The committed baseline leaves it
	// zero only notionally: DefaultSuite pins wal.FsyncNever so the scenario
	// measures the append/encode path, not device fsync latency.
	WALFsync wal.FsyncPolicy
	// Micro includes the hot-path microbenchmarks (see micro.go).
	Micro bool
	// Reps repeats the fig7/fig13/mixed sweeps and keeps each case's best
	// rep (default 3). The CI-scale runs are short enough that one GC pause
	// or scheduler hiccup halves a measured throughput; best-of-N filters
	// those slow-side outliers, which is what makes a regression threshold
	// meaningful (the multiview runner applies the same policy internally).
	Reps int
}

// DefaultSuite is the CI-scale configuration the committed baseline uses.
func DefaultSuite() SuiteConfig {
	return SuiteConfig{
		Retailer:  datasets.RetailerConfig{Locations: 8, Dates: 24, Items: 60, ItemsPerLocDate: 8, Seed: 1},
		Twitter:   datasets.TwitterConfig{Users: 200, Edges: 3000, Seed: 3},
		BatchSize: 200,
		Timeout:   30 * time.Second,
		Readers:   2,
		Views:     4,
		WALFsync:  wal.FsyncNever,
		Micro:     true,
		Reps:      3,
	}
}

// bestOf merges repeated sweeps of the same scenario, keeping each case's
// best-throughput rep (row order follows the first rep). Preference is
// lexicographic: an ok rep beats a failed one, a rep whose readers actually
// ran beats one that starved them (a starved mixed rep measures write-only
// throughput — committing its inflated number as a baseline would make
// every honest future run read as a regression), and throughput breaks the
// remaining ties.
func bestOf(runs [][]ScenarioResult) []ScenarioResult {
	if len(runs) == 1 {
		return runs[0]
	}
	better := func(row, best ScenarioResult) bool {
		if okNow, okBest := row.Status == "ok", best.Status == "ok"; okNow != okBest {
			return okNow
		}
		if stNow, stBest := readersStarved(row), readersStarved(best); stNow != stBest {
			return !stNow
		}
		return row.ThroughputTPS > best.ThroughputTPS
	}
	out := append([]ScenarioResult(nil), runs[0]...)
	for _, rows := range runs[1:] {
		for _, row := range rows {
			found := false
			for i := range out {
				if out[i].Case != row.Case {
					continue
				}
				found = true
				if better(row, out[i]) {
					out[i] = row
				}
				break
			}
			if !found {
				out = append(out, row)
			}
		}
	}
	return out
}

// suiteScenario converts one strategy run into a report row.
func suiteScenario(scenario string, r RunResult, cfg SuiteConfig, readers int) ScenarioResult {
	return ScenarioResult{
		Scenario:      scenario,
		Case:          r.Name,
		Batch:         cfg.BatchSize,
		Workers:       max(1, cfg.Workers),
		Readers:       readers,
		Tuples:        r.Tuples,
		ThroughputTPS: r.Throughput,
		P50BatchNs:    r.P50Batch.Nanoseconds(),
		P99BatchNs:    r.P99Batch.Nanoseconds(),
		PeakMemBytes:  r.PeakMem,
		Status:        r.Status(),
	}
}

// RunSuite executes the benchmark suite — the fig7 and fig13 strategy
// sweeps (ring-payload strategies only; the scalar competitors are slow by
// design and tested elsewhere), the mixed maintenance+serving scenario, and
// the multiview shared-vs-separate comparison — plus the hot-path
// microbenchmarks, and returns the machine-readable report.
func RunSuite(cfg SuiteConfig) *Report {
	rep := NewReport()

	// add stamps every row of the scenario just finished with the current
	// process high-water mark (MemStats.Sys only grows, so later scenarios
	// include earlier ones' footprint; rows within one report are still
	// comparable to the same rows in another report, which is what benchdiff
	// needs).
	add := func(rows []ScenarioResult) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for i := range rows {
			rows[i].PeakRSSBytes = ms.Sys
		}
		rep.Scenarios = append(rep.Scenarios, rows...)
	}

	reps := max(1, cfg.Reps)
	sweep := func(one func() []ScenarioResult) {
		runs := make([][]ScenarioResult, reps)
		for i := range runs {
			runs[i] = one()
		}
		add(bestOf(runs))
	}

	f7 := Fig7Config{
		Dataset:   "retailer",
		BatchSize: cfg.BatchSize,
		Timeout:   cfg.Timeout,
		Workers:   cfg.Workers,
		Retailer:  cfg.Retailer,
	}
	sweep(func() []ScenarioResult {
		_, res7, _ := fig7Run(f7)
		rows := make([]ScenarioResult, 0, len(res7))
		for _, r := range res7 {
			rows = append(rows, suiteScenario("fig7", r, cfg, 0))
		}
		return rows
	})

	f13 := Fig13Config{
		BatchSize: cfg.BatchSize,
		Timeout:   cfg.Timeout,
		Workers:   cfg.Workers,
		Twitter:   cfg.Twitter,
	}
	sweep(func() []ScenarioResult {
		res13, _ := fig13Run(f13)
		rows := make([]ScenarioResult, 0, len(res13))
		for _, r := range res13 {
			rows = append(rows, suiteScenario("fig13", r, cfg, 0))
		}
		return rows
	})

	f7m := f7
	f7m.Readers = max(1, cfg.Readers)
	sweep(func() []ScenarioResult {
		_, _, served := fig7Run(f7m)
		rows := make([]ScenarioResult, 0, len(served))
		for _, mr := range served {
			row := suiteScenario("mixed", mr.RunResult, cfg, f7m.Readers)
			row.ReaderOpsPerSec = mr.Reader.OpsPerSec
			rows = append(rows, row)
		}
		return rows
	})

	// Durability overhead: the fig7 cofactor view through db.DB, without a
	// WAL vs appending every batch to a segmented one (fsync per WALFsync).
	wb := WALBenchConfig{
		Retailer:  cfg.Retailer,
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
		Dir:       cfg.WALDir,
		Fsync:     cfg.WALFsync,
	}
	sweep(func() []ScenarioResult {
		resW := WALBench(wb)
		rows := make([]ScenarioResult, 0, len(resW))
		for _, r := range resW {
			rows = append(rows, suiteScenario("fig7wal", r, cfg, 0))
		}
		return rows
	})

	// Network serving + replication: HTTP ingest/lookup/scan throughput over
	// real loopback TCP plus the follower's replication staleness.
	sb := ServeBenchConfig{
		Retailer:  cfg.Retailer,
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
		Readers:   max(1, cfg.Readers),
		Dir:       cfg.WALDir,
	}
	sweep(func() []ScenarioResult { return ServeBench(sb) })

	mv := multiViewRun(MultiViewConfig{
		Views:     cfg.Views,
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
		Retailer:  cfg.Retailer,
		Reps:      2,
	})
	mvRow := func(mode string, el time.Duration, err error) ScenarioResult {
		row := ScenarioResult{
			Scenario: "multiview",
			Case:     mode,
			Batch:    cfg.BatchSize,
			Workers:  max(1, cfg.Workers),
			Views:    mv.cfg.Views,
			Tuples:   mv.total,
			Status:   "ok",
		}
		if err != nil {
			row.Status = "error: " + err.Error()
		} else if el > 0 {
			row.ThroughputTPS = float64(mv.total) / el.Seconds()
		}
		return row
	}
	add([]ScenarioResult{
		mvRow("shared-db", mv.shared, mv.sharedErr),
		mvRow("separate-engines", mv.separate, mv.sepErr),
	})

	if cfg.Micro {
		rep.Micro = RunMicro()
	}
	return rep
}
