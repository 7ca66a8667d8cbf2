package main

// spec names one metric and its unit. The two tables below are the metric
// set of BENCHMARK.json, in the same order; TestBenchmarkJSON keeps them in
// step.
type spec struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints, on every workload. None of
// them is ever 0 on a correct run.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"dyn_exts", "count"},
	{"model_cycles", "modelled_cycles"},
	{"code_insns", "count"},
}

// perLayer are the metrics a --trace 1 run prints, on every workload. A layer
// a workload does not exercise reads 0. Times are self times per op: a
// span's duration minus the spans it encloses.
var perLayer = []spec{
	{"minijava.ms", "ms"},
	{"minijava.ns_per_byte", "ns/B"},
	{"opt.inline.ms", "ms"},
	{"jit.clone_ms", "ms"},
	{"jit.fingerprint_ms", "ms"},
	{"codecache.get_ms", "ms"},
	{"codecache.put_ms", "ms"},
	{"codecache.hits", "count"},
	{"codecache.misses", "count"},
	{"codecache.hit_ratio", "ratio"},
	{"codecache.evictions", "count"},
	{"codecache.bytes", "B"},
	{"opt.ms", "ms"},
	{"opt.ns_per_insn", "ns/insn"},
	{"opt.removed", "count"},
	{"opt.hoisted", "count"},
	{"extelim.convert_ms", "ms"},
	{"extelim.generated", "count"},
	{"chains.ms", "ms"},
	{"vrange.ms", "ms"},
	{"extelim.elim_ms", "ms"},
	{"extelim.eliminated", "count"},
	{"extelim.inserted", "count"},
	{"extelim.remaining", "count"},
	{"extelim.elim_ratio", "ratio"},
	{"table3.signext_pct", "%"},
	{"table3.chains_pct", "%"},
	{"peep.ms", "ms"},
	{"peep.rewrites", "count"},
	{"guard.verify_ms", "ms"},
	{"guard.fallbacks", "count"},
	{"interp.profile_ms", "ms"},
	{"interp.run_ms", "ms"},
	{"interp.steps", "count"},
	{"interp.ns_per_step", "ns"},
	{"target.lower_ms", "ms"},
	{"serve.server_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.queue_depth", "requests"},
	{"serve.inflight", "requests"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.rejected", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
	{"op.compile_ms_p50", "ms"},
	{"op.run_ms_p50", "ms"},
	{"op.error_frac", "ratio"},
	{"op.degraded_frac", "ratio"},
}
