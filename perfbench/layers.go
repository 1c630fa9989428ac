package main

import (
	"fmt"

	"smistudy/internal/obs"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer the workload does not
// reach reads 0.
var layerUnits = map[string]string{
	"scenario.parse_us_p50":           "us",
	"runner.run_ms_p50":               "ms",
	"runner.mallocs_per_cell":         "count",
	"runner.alloc_mb_per_cell":        "MiB",
	"durable.open_ms":                 "ms",
	"serve.cold_submit_ms_p50":        "ms",
	"serve.cached_submit_ms_p50":      "ms",
	"obs.read_trace_ms_p50":           "ms",
	"report.build_ms_p50":             "ms",
	"sim.events_per_cell":             "count",
	"sim.cancelled_frac":              "ratio",
	"sim.host_ns_per_event":           "ns",
	"mpi.sends_per_cell":              "count",
	"mpi.collectives_per_cell":        "count",
	"mpi.bytes_per_cell":              "B",
	"netsim.delivered_per_cell":       "count",
	"cpu.migrations_per_cell":         "count",
	"kernel.tasks_per_cell":           "count",
	"perturb.smm_episodes_per_cell":   "count",
	"perturb.steal_episodes_per_cell": "count",
	"serve.queue_wait_ms_p50":         "ms",
	"serve.cell_ms_p50":               "ms",
	"serve.dedup_frac":                "ratio",
	"serve.rejected":                  "count",
	"obs.trace_events_per_cell":       "count",
	"obs.trace_bytes_per_cell":        "B",
	"bench.trace_overhead_frac":       "ratio",
	"fail_frac":                       "ratio",
}

// shareLayers are the CPU-profile buckets beyond cpuLayers.
var shareLayers = []string{"runtime", "other", "bench"}

func init() {
	for _, l := range append(append([]string(nil), cpuLayers...), shareLayers...) {
		layerUnits[l+".cpu_share"] = "ratio"
	}
}

// zeroLayerMetrics returns every per-layer metric at 0.
func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{0, unit}
	}
	return m
}

// addCounterMetrics stores the obs.Bus counter metrics: counters holds
// registry counters summed over ids, cells the cells they cover.
func addCounterMetrics(m map[string]metric, counters map[string]int64, cells int64) {
	per := func(name string) float64 { return float64(counters[name]) / float64(max(cells, 1)) }
	m["sim.events_per_cell"] = metric{per("engine_events_fired"), "count"}
	if s := counters["engine_events_scheduled"]; s > 0 {
		m["sim.cancelled_frac"] = metric{float64(counters["engine_events_cancelled"]) / float64(s), "ratio"}
	}
	m["mpi.sends_per_cell"] = metric{per("mpi_sends"), "count"}
	m["mpi.collectives_per_cell"] = metric{per("mpi_collectives"), "count"}
	m["mpi.bytes_per_cell"] = metric{per("mpi_send_bytes"), "B"}
	m["netsim.delivered_per_cell"] = metric{per("net_delivered"), "count"}
	m["cpu.migrations_per_cell"] = metric{per("sched_migrations"), "count"}
	m["kernel.tasks_per_cell"] = metric{per("tasks_spawned"), "count"}
	m["perturb.smm_episodes_per_cell"] = metric{per("smm_episodes"), "count"}
	m["perturb.steal_episodes_per_cell"] = metric{per("steal_episodes"), "count"}
}

// sumCounters adds a registry snapshot's counters into totals by name.
func sumCounters(totals map[string]int64, s obs.Snapshot) {
	for _, cs := range s.Counters {
		totals[cs.Name] += cs.Value
	}
}

// addCPUShares attributes a CPU profile and stores each bucket's share.
func addCPUShares(m map[string]metric, profile []byte) error {
	shares, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for layer, v := range shares {
		name := layer + ".cpu_share"
		if _, ok := layerUnits[name]; !ok {
			return fmt.Errorf("cpu profile: no metric for layer %q", layer)
		}
		m[name] = metric{v, "ratio"}
	}
	return nil
}
