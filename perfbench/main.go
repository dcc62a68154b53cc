// Command perfbench measures the cluster DES and the offline tuner end
// to end and, in a traced run, layer by layer. It runs one workload
// for a fixed wall-clock budget, checks every output, and prints each
// metric by name with its unit, then one JSON result line:
//
//	go run . -workload des-wide-steal -seed 42 -seconds 30 -trace 0
//
// Untraced reps (-trace 0) give the end-to-end metrics. A traced run
// (-trace 1) alternates untraced and traced reps, reports the
// per-layer metrics and the tracing overhead, and writes the spans of
// its first traced rep plus a per-layer self-time summary under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: des-wide-steal | des-learn-day | tune-cli")
		seed    = flag.Int64("seed", 42, "workload seed")
		seconds = flag.Float64("seconds", 10, "wall-clock seconds of measured reps")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench/trace", "directory the traced run writes its spans and summary to")
	)
	flag.Parse()
	w, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d must be 0 or 1", *trace)
	case *seconds <= 0:
		return fmt.Errorf("-seconds %v must be positive", *seconds)
	}
	traced := *trace == 1

	// The first rep warms caches and fixes the reference every later
	// rep's simulated output must repeat exactly. It counts against
	// the time budget, and no rep starts that would, at the typical rep
	// length so far, end after it.
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	var walls []float64
	timed := func(tr *tracer) (rep, error) {
		t0 := time.Now()
		r, err := w(*seed, tr)
		walls = append(walls, time.Since(t0).Seconds())
		return r, err
	}
	ref, err := timed(nil)
	if err != nil {
		return err
	}
	attempted, failed := ref.tally.runs, ref.tally.badRuns
	var plain, withTrace []rep
	var spans []span
	for i := 0; len(plain) == 0 || (traced && len(withTrace) == 0) ||
		time.Until(deadline).Seconds() > median(walls); i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer(*name)
		}
		r, err := timed(tr)
		if err != nil {
			return err
		}
		attempted += r.tally.runs
		if r.sim != ref.sim {
			failed += r.tally.runs
		} else {
			failed += r.tally.badRuns
		}
		if tr == nil {
			plain = append(plain, r)
			continue
		}
		r.layer = layerMetrics(tr.spans, r.tally, r.sim)
		withTrace = append(withTrace, r)
		if spans == nil {
			spans = tr.spans
		}
	}

	var ms map[string]metric
	if traced {
		ms = perLayer(plain, withTrace)
		rows, layers := summarizeSpans(spans)
		summary := map[string]any{
			"workload": *name, "seed": *seed,
			"untraced_reps": len(plain), "traced_reps": len(withTrace),
			"trace_overhead_s": ms["trace.overhead_s"].Value,
			"layer_self_s":     layers, "spans": rows,
		}
		if err := writeTrace(*out, *name, *seed, spans, summary); err != nil {
			return err
		}
	} else {
		ms = endToEnd(plain)
	}

	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload=%s seed=%d reps=%d traced_reps=%d\n", *name, *seed, len(plain), len(withTrace))
	fmt.Printf("  model: p99 %.6g ms, QoS %.6g%%, energy %.6g kJ, failed %.6g%% of %d requests\n",
		ref.sim.P99Ms, ref.sim.QoSPct, ref.sim.EnergyKJ, ref.sim.FailedPct, ref.tally.requests)
	for _, k := range names {
		fmt.Printf("  %-30s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	b, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// endToEnd folds the untraced reps into the host-cost metrics a user
// of the simulator waits and pays for: medians of the timings and the
// allocation, and the peak resident set of this process.
func endToEnd(plain []rep) map[string]metric {
	var setup, runs, alloc []float64
	for _, r := range plain {
		for _, ns := range r.setupNs {
			setup = append(setup, float64(ns)/1e9)
		}
		runs = append(runs, float64(r.runNs)/1e9)
		alloc = append(alloc, float64(r.allocB)/1e6)
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return map[string]metric{
		"setup_s":    {median(setup), "s"},
		"run_s":      {median(runs), "s"},
		"alloc_mb":   {median(alloc), "MB"},
		"max_rss_mb": {float64(ru.Maxrss) * 1024 / 1e6, "MB"},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
