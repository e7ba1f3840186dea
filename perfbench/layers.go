package main

// sqlViews are the two SQL SUM views over Inventory that retailer-ingest
// and serve-mixed both maintain. Both use the float ring, so within one
// batch the DB converts the Inventory delta once and hands it to both.
var sqlViews = []struct{ name, sql string }{
	{"units_by_locn_ksn", "SELECT locn, ksn, SUM(inventoryunits) FROM Inventory GROUP BY locn, ksn"},
	{"units_by_locn_date", "SELECT locn, dateid, SUM(inventoryunits) FROM Inventory GROUP BY locn, dateid"},
}

// viewNames are the views whose per-view metrics are reported.
var viewNames = []string{"cofactor", sqlViews[0].name, sqlViews[1].name}

// layerMetrics are the per-layer metrics a traced run reports, in output
// order. Every traced run reports all of them: a layer that does no work on
// a workload, or is not measured there, reads 0 (README.md says which
// workload measures which metric).
var layerMetrics = func() []struct{ name, unit string } {
	type m = struct{ name, unit string }
	out := []m{
		{"db.apply_p50_ns", "ns"},
		{"db.apply_p99_ns", "ns"},
		{"db.self_p50_ns", "ns"},
		{"db.mem_bytes", "bytes"},
		{"db.queue_depth_p50", "count"},
		{"db.queue_depth_max", "count"},
		{"db.queue_full", "count"},
	}
	for _, v := range viewNames {
		out = append(out,
			m{"ivm.maintain_p50_ns." + v, "ns"},
			m{"ivm.maintain_p99_ns." + v, "ns"},
			m{"ivm.view_count." + v, "count"},
			m{"ivm.view_bytes." + v, "bytes"},
			m{"ivm.backfill_s." + v, "s"},
		)
	}
	out = append(out,
		m{"ivm.load_s", "s"},
		m{"ivm.init_s", "s"},
		m{"ivm.apply_p50_ns", "ns"},
		m{"ivm.apply_p99_ns", "ns"},
		m{"data.store_bytes", "bytes"},
		m{"data.fact_values", "count"},
		m{"data.fact_bytes", "bytes"},
		m{"data.delta_build_p50_ns", "ns"},
		m{"netserve.lookup_server_p50_ns", "ns"},
		m{"netserve.lookup_server_p99_ns", "ns"},
		m{"netserve.scan_server_p50_ns", "ns"},
		m{"netserve.apply_server_p50_ns", "ns"},
		m{"netserve.lookup_client_p50_ns", "ns"},
		m{"netserve.resp_bytes_per_lookup", "bytes"},
		m{"netserve.req_bytes_per_apply", "bytes"},
		m{"serve.lookup_p50_ns", "ns"},
		m{"serve.scan_p50_ns", "ns"},
		m{"wal.write_p50_ns", "ns"},
		m{"wal.write_p99_ns", "ns"},
		m{"wal.sync_p50_ns", "ns"},
		m{"wal.sync_p99_ns", "ns"},
		m{"wal.syncs", "count"},
		m{"wal.bytes_per_tuple", "bytes"},
		m{"wal.checkpoints", "count"},
		m{"wal.checkpoint_p50_ms", "ms"},
		m{"wal.checkpoint_bytes", "bytes"},
		m{"wal.stalled_batches", "count"},
		m{"wal.replayed_batches", "count"},
		m{"wal.recover_read_bytes", "bytes"},
		m{"replica.bytes_per_batch", "bytes"},
		m{"replica.reads_per_batch", "count"},
		m{"reconcile.apply_coverage", "ratio"},
		m{"reconcile.maintain_over_apply", "ratio"},
	)
	return out
}()
