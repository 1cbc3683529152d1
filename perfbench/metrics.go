package main

// metricSpec names a reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics --trace 0 prints: the ones every workload
// measures.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"detect_p50_ms", "ms"},
	{"detect_tail_ms", "ms"},
	{"violations_p50_ms", "ms"},
	{"violations_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics --trace 1 prints, on every workload; a layer
// the workload leaves idle reads 0.
var perLayer = func() []metricSpec {
	var out []metricSpec
	add := func(name, unit string) { out = append(out, metricSpec{name, unit}) }
	for _, op := range opNames {
		add("http."+op+".self_ms", "ms")
	}
	for _, op := range opNames {
		add("server."+op+".ms", "ms")
		add("server."+op+".resp_kb", "kB")
	}
	add("server.detect.encode_ms", "ms")
	add("server.dc_detect.encode_ms", "ms")
	add("engine.detect.ms", "ms")
	add("engine.dc_detect.ms", "ms")
	add("engine.append.self_ms", "ms")
	add("cfd.detect.ms", "ms")
	add("dc.detect.ms", "ms")
	add("discovery.discover.ms", "ms")
	add("relation.cache.hit_ratio", "ratio")
	add("relation.cache.misses", "count")
	add("relation.cache.advances_per_append", "count")
	add("relation.cache.patches_per_append", "count")
	add("relation.index_resident_mb", "MiB")
	add("repair.changes_per_append", "count")
	add("wal.append.ms", "ms")
	add("wal.append.p99_ms", "ms")
	add("wal.append_share", "ratio")
	add("wal.bytes_per_row", "B")
	add("wal.checkpoint.ms", "ms")
	add("wal.recover.ms", "ms")
	add("wal.replayed_records", "count")
	for _, call := range []string{"shard_detect", "shard_groups", "shard_dc", "discover", "append"} {
		add("fanout."+call+".ms", "ms")
	}
	for _, op := range []string{"detect", "dc_detect", "discover"} {
		add("fanout.calls_per_"+op, "count")
	}
	add("fanout.retries", "count")
	add("worker.shard_detect.ms", "ms")
	add("worker.shard_detect.resp_kb", "kB")
	add("wire.shard_detect.ms", "ms")
	for _, op := range []string{"detect", "dc_detect", "discover"} {
		add("merge."+op+".self_ms", "ms")
	}
	add("merge.boundary_fraction", "ratio")
	for _, op := range opNames {
		add("overhead."+op+".untraced_p50_ms", "ms")
		add("overhead."+op+".traced_p50_ms", "ms")
	}
	return out
}()
