package main

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run prints all of them on every workload; a
// layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"aig.parse_ms", "ms"},
	{"model.coi_ms", "ms"},
	{"model.hash_ms", "ms"},
	{"model.selfloop_ms", "ms"},
	{"encode.ms", "ms"},
	{"encode.vars", "count"},
	{"encode.clauses", "count"},
	{"sat.ms", "ms"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.props_per_s", "1/s"},
	{"sat.clause_db_peak_bytes", "bytes"},
	{"jsat.ms", "ms"},
	{"jsat.queries", "count"},
	{"jsat.queries_per_s", "1/s"},
	{"jsat.cache_hit_frac", "fraction"},
	{"jsat.peak_bytes", "bytes"},
	{"qbf.ms", "ms"},
	{"qbf.nodes", "count"},
	{"qbf.nodes_per_s", "1/s"},
	{"interp.ms", "ms"},
	{"interp.conflicts", "count"},
	{"interp.iterations", "count"},
	{"induction.ms", "ms"},
	{"deepen.linear_ms", "ms"},
	{"deepen.geometric_ms", "ms"},
	{"deepen.queries", "count"},
	{"deepen.query_p50_ms", "ms"},
	{"deepen.query_max_ms", "ms"},
	{"incr.conflicts", "count"},
	{"incr.clauses_added", "count"},
	{"incr.assumption_reuse_frac", "fraction"},
	{"witness.validate_ms", "ms"},
	{"cert.validate_ms", "ms"},
	{"service.hit_ms", "ms"},
	{"service.fresh_solve_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"cache.hit_frac", "fraction"},
	{"cache.terminal_hits", "count"},
	{"session.hit_frac", "fraction"},
	{"session.misses", "count"},
	{"deepen.bounds_skipped", "count"},
	{"cluster.proxy_ms", "ms"},
	{"cluster.proxied_frac", "fraction"},
	{"replication.out", "count"},
	{"gen.lateness_ms", "ms"},
	{"trace.residual_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

var layerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()

// zeroLayers sets every per-layer metric to 0, so a traced run reports
// the full list whichever layers its workload reaches.
func zeroLayers(rep *report) {
	for _, l := range perLayer {
		rep.set(l.name, l.unit, 0)
	}
}

// setLayer sets a per-layer metric, taking the unit from perLayer.
func setLayer(rep *report, name string, v float64) {
	unit, ok := layerUnit[name]
	if !ok {
		panic("bmcbench: unknown per-layer metric " + name)
	}
	rep.set(name, unit, v)
}
