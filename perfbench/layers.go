package main

import (
	"math"
	"sort"
)

// layerUnits names every per-layer metric with its unit. A workload
// that does not exercise a layer reports 0 for it.
var layerUnits = map[string]string{
	"clusterdes.requests":          "count",
	"clusterdes.run_self_s":        "s",
	"clusterdes.ns_per_req":        "ns/req",
	"clusterdes.new_s":             "s",
	"clusterdes.hedges":            "count",
	"clusterdes.hedge_win_ratio":   "ratio",
	"clusterdes.steals":            "count",
	"clusterdes.steal_ratio":       "ratio",
	"clusterdes.cross_domain_ops":  "count",
	"cluster.split_calls":          "count",
	"cluster.split_ns":             "ns/call",
	"cluster.pool_busy_frac":       "ratio",
	"core.decide_calls":            "count",
	"core.decide_ns":               "ns/call",
	"core.core_migrations":         "count",
	"core.dvfs_changes":            "count",
	"federation.sync_rounds":       "count",
	"federation.warm_starts":       "count",
	"resilience.retries":           "count",
	"resilience.retry_ratio":       "ratio",
	"resilience.timeouts":          "count",
	"resilience.breaker_opens":     "count",
	"faults.crashes":               "count",
	"faults.slow_onsets":           "count",
	"faults.lost":                  "count",
	"autoscale.scale_events":       "count",
	"autoscale.node_interval_frac": "ratio",
	"telemetry.summarize_s":        "s",
	"tuning.evaluations":           "count",
	"tuning.configs":               "count",
	"tuning.rounds":                "count",
	"tuning.winner_score":          "score",
	"tuning.eval_p50_ms":           "ms",
	"tuning.eval_p95_ms":           "ms",
	"tuning.self_s":                "s",
	"trace.overhead_s":             "s",
	"model.p99_ms":                 "ms",
	"model.qos_pct":                "%",
	"model.energy_kj":              "kJ",
	"model.failed_pct":             "%",
}

// layerMetrics derives the per-layer values of one traced rep from its
// spans and its counters.
func layerMetrics(spans []span, t tally, out sim) map[string]float64 {
	self := selfNs(spans)
	var runSelf, newNs, sumNs, splitNs, decideNs int64
	var splitCalls, decideCalls int
	tune := -1
	for i, s := range spans {
		switch s.Name {
		case "clusterdes.Run":
			runSelf += self[i]
		case "clusterdes.New":
			newNs += s.dur()
		case "telemetry.Summarize":
			sumNs += s.dur()
		case "cluster.Split":
			splitNs += s.dur()
			splitCalls += max(s.Calls, 1)
		case "core.Decide":
			decideNs += s.dur()
			decideCalls += max(s.Calls, 1)
		case "tuning.Tune":
			tune = i
		}
	}
	m := map[string]float64{}
	if tune >= 0 {
		var evals []float64
		var busy float64
		for _, s := range spans {
			if s.Name == "tuning.Evaluate" && s.Parent == spans[tune].ID {
				evals = append(evals, float64(s.dur())/1e6)
				busy += float64(s.dur())
			}
		}
		sort.Float64s(evals)
		m["tuning.evaluations"] = float64(t.tuneEvals)
		m["tuning.configs"] = float64(t.tuneConfigs)
		m["tuning.rounds"] = float64(t.tuneRounds)
		m["tuning.winner_score"] = t.winnerScore
		m["tuning.eval_p50_ms"] = rank(evals, 0.50)
		m["tuning.eval_p95_ms"] = rank(evals, 0.95)
		m["tuning.self_s"] = float64(self[tune]) / 1e9
		m["cluster.pool_busy_frac"] = busy / (float64(spans[tune].dur()) * tuneWorkers)
	}
	st := t.st
	m["clusterdes.requests"] = float64(t.requests)
	m["clusterdes.run_self_s"] = float64(runSelf) / 1e9
	m["clusterdes.ns_per_req"] = ratio(float64(runSelf), t.requests)
	m["clusterdes.new_s"] = float64(newNs) / 1e9
	m["clusterdes.hedges"] = float64(st.Hedges)
	m["clusterdes.hedge_win_ratio"] = ratio(float64(st.HedgeWins), st.Hedges)
	m["clusterdes.steals"] = float64(st.Steals)
	m["clusterdes.steal_ratio"] = ratio(float64(st.Steals), t.requests)
	m["clusterdes.cross_domain_ops"] = float64(st.CrossDomainHedges + st.CrossDomainSteals + st.CrossDomainMigrations)
	m["cluster.split_calls"] = float64(splitCalls)
	m["cluster.split_ns"] = ratio(float64(splitNs), splitCalls)
	m["core.decide_calls"] = float64(decideCalls)
	m["core.decide_ns"] = ratio(float64(decideNs), decideCalls)
	m["core.core_migrations"] = float64(st.CoreMigrations)
	m["core.dvfs_changes"] = float64(st.DVFSChanges)
	m["federation.sync_rounds"] = float64(st.SyncRounds)
	m["federation.warm_starts"] = float64(st.WarmStarts)
	m["resilience.retries"] = float64(st.Retries)
	m["resilience.retry_ratio"] = ratio(float64(st.Retries), t.requests)
	m["resilience.timeouts"] = float64(st.Timeouts)
	m["resilience.breaker_opens"] = float64(st.BreakerOpens)
	m["faults.crashes"] = float64(st.Crashes)
	m["faults.slow_onsets"] = float64(st.SlowOnsets)
	m["faults.lost"] = float64(st.Lost)
	m["autoscale.scale_events"] = float64(st.Ups + st.Downs)
	m["autoscale.node_interval_frac"] = ratio(float64(st.NodeIntervals), t.rosterIntervals)
	m["telemetry.summarize_s"] = float64(sumNs) / 1e9
	m["model.p99_ms"] = out.P99Ms
	m["model.qos_pct"] = out.QoSPct
	m["model.energy_kj"] = out.EnergyKJ
	m["model.failed_pct"] = out.FailedPct
	return m
}

// perLayer reports the median over the traced reps of every per-layer
// value, and the tracing overhead: the median traced run_s minus the
// median untraced run_s of the interleaved reps.
func perLayer(plain, traced []rep) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.layer[name])
		}
		out[name] = metric{median(xs), unit}
	}
	runS := func(rs []rep) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, float64(r.runNs)/1e9)
		}
		return median(xs)
	}
	out["trace.overhead_s"] = metric{runS(traced) - runS(plain), "s"}
	return out
}

func ratio(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

// rank is the nearest-rank q-quantile of sorted xs.
func rank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[int(math.Ceil(q*float64(len(xs))))-1]
}
