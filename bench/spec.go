package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// This file is the benchmark's vocabulary: the workload, end-to-end
// and per-layer metric names BENCHMARK.json declares. TestBenchSmoke
// holds the two in step.

type metricDef struct{ name, unit string }

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"tail_us", "us"},
	{"live_heap_mb", "MiB"},
	{"aso", "ratio"},
	{"mso", "ratio"},
}

// perLayerMetrics are grouped by layer (= package name). A workload
// prints 0 for a layer it does not exercise: that zero is the evidence
// that the workload bypasses the layer.
var perLayerMetrics = []metricDef{
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.compiles", "count"},
	{"server.cold_p50_us", "us"},
	{"server.warm_p50_us", "us"},
	{"sqlparse.parse_us", "us"},
	{"query.sign_us", "us"},
	{"optimizer.dp_calls", "count"},
	{"optimizer.optcost_us", "us"},
	{"ess.build_us", "us"},
	{"ess.build_6d_us", "us"},
	{"ess.build_lazy_us", "us"},
	{"ess.recost_calls", "count"},
	{"ess.fallback_rate", "ratio"},
	{"ess.contour_at_us", "us"},
	{"ess.contour_at_calls", "count"},
	{"ess.cost_at_calls", "count"},
	{"ess.share_of_discover", "ratio"},
	{"ess.lazy_settled_points", "count"},
	{"ess.lazy_settled_frac", "ratio"},
	{"ess.lazy_hit_ratio", "ratio"},
	{"ess.apply_refinements_us", "us"},
	{"ess.refined_points", "count"},
	{"ess.epoch", "count"},
	{"ess.delta_append_us", "us"},
	{"ess.delta_bytes_per_op", "B"},
	{"ess.snapshot_save_us", "us"},
	{"ess.snapshot_load_us", "us"},
	{"ess.snapshot_bytes", "B"},
	{"core.compile_us", "us"},
	{"core.prepare_strategy_us", "us"},
	{"core.discover_us.pb", "us"},
	{"core.discover_us.sb", "us"},
	{"core.discover_us.ab", "us"},
	{"core.discover_us.parqo", "us"},
	{"core.discover_us.robustmap", "us"},
	{"core.discover_us.adaptiveswitch", "us"},
	{"core.algorithm_self_us", "us"},
	{"core.steps_per_op", "count"},
	{"core.outcome_cache.get_us", "us"},
	{"core.outcome_cache.put_us", "us"},
	{"core.outcome_cache.hit_ratio", "ratio"},
	{"core.outcome_cache.evictions", "count"},
	{"core.artifact_cache.hit_ratio", "ratio"},
	{"core.artifact_cache.evictions", "count"},
	{"core.artifact_cache.bytes", "B"},
	{"core.bound_violations", "count"},
	{"discovery.sim_exec_us", "us"},
	{"discovery.engine_calls_per_op", "count"},
	{"discovery.real_us.pb", "us"},
	{"discovery.real_us.sb", "us"},
	{"discovery.real_us.ab", "us"},
	{"discovery.wall_subopt.pb", "ratio"},
	{"discovery.wall_subopt.sb", "ratio"},
	{"discovery.wall_subopt.ab", "ratio"},
	{"exec.full_us", "us"},
	{"exec.spill_us", "us"},
	{"exec.killed_us", "us"},
	{"exec.ns_per_cost_unit.full", "ns"},
	{"exec.ns_per_cost_unit.spill", "ns"},
	{"exec.ns_per_cost_unit.killed", "ns"},
	{"exec.ns_per_cost_unit.seqscan", "ns"},
	{"exec.ns_per_cost_unit.hashjoin", "ns"},
	{"exec.ns_per_cost_unit.indexnl", "ns"},
	{"exec.morsel_speedup_w2", "ratio"},
	{"datagen.populate_s", "s"},
	{"stats.from_data_s", "s"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"trace.overhead_ratio", "ratio"},
}

// layerValues holds one traced run's per-layer numbers by name; names
// it lacks read 0.
type layerValues map[string]float64

var workloads = []*workloadDef{serveHot, serveMiss, serveTenants, serveLazy, queryReal}
