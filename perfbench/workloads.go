package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/faults"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/resilience"
	"hipster/internal/telemetry"
	"hipster/internal/tuning"
	"hipster/internal/workload"
)

// drainSecs is the zero-load tail every DES pattern ends in, so each
// run drains and its four-way ledger can be checked exactly.
const drainSecs = 30

// withDrain appends the zero-load drain tail to a bounded pattern.
func withDrain(p loadgen.Pattern) loadgen.Pattern {
	return loadgen.Concat{Parts: []loadgen.Pattern{p, loadgen.Ramp{HoldSecs: drainSecs}}}
}

// sim is what a rep computes; every rep of one invocation, traced or
// not, must produce the same value.
type sim struct {
	P99Ms, QoSPct, EnergyKJ, FailedPct float64
	// Fingerprint hashes every per-interval fleet sample of every run.
	Fingerprint uint64
	// Winner and Score identify the tuner's winner (tune-cli only).
	Winner string
	Score  float64
}

// tally sums the request ledger and layer counters over a rep's runs.
type tally struct {
	runs, badRuns                      int
	requests, failed                   int
	st                                 clusterdes.Stats
	rosterIntervals                    int
	tuneEvals, tuneConfigs, tuneRounds int
	winnerScore                        float64
}

// add folds one finished run in. A run whose ledger does not balance
// counts all of its requests as failed.
func (t *tally) add(fr fleetRun) {
	lat, st := fr.res.Latency, fr.res.Stats
	t.runs++
	t.requests += st.Requests
	if fr.balanced() {
		t.failed += lat.Dropped + lat.TimedOut + lat.Lost
	} else {
		t.badRuns++
		t.failed += st.Requests
	}
	s := &t.st
	s.Hedges += st.Hedges
	s.HedgeWins += st.HedgeWins
	s.Steals += st.Steals
	s.CrossDomainHedges += st.CrossDomainHedges
	s.CrossDomainSteals += st.CrossDomainSteals
	s.CrossDomainMigrations += st.CrossDomainMigrations
	s.Ups += st.Ups
	s.Downs += st.Downs
	s.NodeIntervals += st.NodeIntervals
	s.CoreMigrations += st.CoreMigrations
	s.DVFSChanges += st.DVFSChanges
	s.SyncRounds += st.SyncRounds
	s.WarmStarts += st.WarmStarts
	s.Retries += st.Retries
	s.Timeouts += st.Timeouts
	s.BreakerOpens += st.BreakerOpens
	s.Crashes += st.Crashes
	s.SlowOnsets += st.SlowOnsets
	s.Lost += st.Lost
	t.rosterIntervals += fr.sum.Intervals * fr.nodes
}

// rep is one execution of a workload.
type rep struct {
	setupNs []int64 // set-up samples
	runNs   int64
	allocB  uint64
	sim     sim
	tally   tally
	layer   map[string]float64 // per-layer values of a traced rep
}

// workloadRunner runs one rep; tr is nil for an untraced rep.
type workloadRunner func(seed int64, tr *tracer) (rep, error)

var workloads = map[string]workloadRunner{
	"des-wide-steal": desWorkload{horizon: wideSteadySecs + drainSecs, options: wideStealOptions}.rep,
	"des-learn-day":  desWorkload{horizon: 1440 + drainSecs, options: learnDayOptions}.rep,
	"tune-cli":       tuneRep,
}

// wideSteadySecs is how long des-wide-steal holds its constant load.
const wideSteadySecs = 40

// wideStealOptions: a 1024-node WebSearch fleet at a constant 30%
// load with work stealing.
func wideStealOptions(seed int64) (clusterdes.Options, error) {
	nodes, err := clusterdes.Uniform(1024, platform.JunoR1(), workload.WebSearch())
	return clusterdes.Options{
		Nodes:      nodes,
		Pattern:    withDrain(loadgen.Ramp{From: 0.3, To: 0.3, HoldSecs: wideSteadySecs}),
		Mitigation: clusterdes.WorkStealing{},
		Workers:    1,
		Seed:       seed,
	}, err
}

// learnDayOptions: the closed loop on 16 nodes over one compressed
// diurnal day, with federation, hedging, resilience and faults.
func learnDayOptions(seed int64) (clusterdes.Options, error) {
	nodes, err := clusterdes.Uniform(16, platform.JunoR1(), workload.WebSearch())
	return clusterdes.Options{
		Nodes:      nodes,
		Pattern:    withDrain(loadgen.DefaultDiurnal()),
		Mitigation: clusterdes.Hedged{},
		Workers:    2,
		Seed:       seed,
		Learn: &clusterdes.LearnOptions{
			Federation: &cluster.FederationOptions{SyncEvery: 10},
		},
		Resilience: &resilience.Options{MaxRetries: 1, Timeout: 1.0, Breaker: &resilience.BreakerOptions{}},
		Faults:     &faults.Options{CrashRate: 0.002, SlowRate: 0.005},
	}, err
}

// fleetRun is one built, run and summarized fleet.
type fleetRun struct {
	nodes        int
	newNs, runNs int64
	res          clusterdes.Result
	sum          telemetry.FleetSummary
}

// balanced reports whether completed + dropped + timed out + lost
// equals the requests offered.
func (fr fleetRun) balanced() bool {
	l := fr.res.Latency
	return l.Completed+l.Dropped+l.TimedOut+l.Lost == fr.res.Stats.Requests
}

// fingerprint hashes a run's per-interval fleet samples.
func fingerprint(ft *telemetry.FleetTrace) uint64 {
	h := fnv.New64a()
	for _, s := range ft.Samples {
		fmt.Fprintf(h, "%v\n", s)
	}
	return h.Sum64()
}

// instrument wraps the splitter and, with learning on, the default
// node policies of opts in timing hooks whose spans hang under the
// run span.
func instrument(opts *clusterdes.Options, tr *tracer, perCall bool) (split, decide *hook, err error) {
	split = &hook{name: "cluster.Split", tr: tr, perCall: perCall}
	inner := opts.Splitter
	if inner == nil {
		inner = cluster.WeightedByCapacity{}
	}
	opts.Splitter = tracedSplitter{inner: inner, h: split}
	if opts.Learn == nil {
		return split, nil, nil
	}
	if opts.Learn.BuildPolicy != nil {
		return nil, nil, fmt.Errorf("instrument: only the default node policy can be wrapped")
	}
	decide = &hook{name: "core.Decide", tr: tr, perCall: perCall}
	// The same policies clusterdes builds when BuildPolicy is nil.
	params := core.DefaultParams()
	if opts.Learn.Params != nil {
		params = *opts.Learn.Params
	}
	lo := *opts.Learn
	seed, nodes := opts.Seed, opts.Nodes
	lo.BuildPolicy = func(i int) (policy.Policy, error) {
		p, err := core.New(core.In, nodes[i].Spec, params, seed+int64(i))
		if err != nil {
			return nil, err
		}
		return wrapPolicy(p, decide)
	}
	opts.Learn = &lo
	return split, decide, nil
}

// runFleet builds opts into a fleet, runs it to horizon and
// summarizes it, under span parent when tr is non-nil.
func runFleet(opts clusterdes.Options, horizon float64, tr *tracer, parent int, perCall bool) (fleetRun, error) {
	fr := fleetRun{nodes: len(opts.Nodes)}
	var split, decide *hook
	if tr != nil {
		var err error
		if split, decide, err = instrument(&opts, tr, perCall); err != nil {
			return fr, err
		}
	}
	t0 := time.Now()
	id := tr.begin("clusterdes.New", parent)
	fl, err := clusterdes.New(opts)
	tr.end(id)
	fr.newNs = int64(time.Since(t0))
	if err != nil {
		return fr, err
	}

	t1 := time.Now()
	run := tr.begin("clusterdes.Run", parent)
	for _, h := range []*hook{split, decide} {
		if h != nil {
			h.parent = run
		}
	}
	fr.res, err = fl.Run(horizon)
	tr.end(run)
	if err != nil {
		return fr, err
	}
	if tr != nil {
		from, to := tr.interval(run)
		for _, h := range []*hook{split, decide} {
			if h != nil {
				h.flush(from, to)
			}
		}
	}
	id = tr.begin("telemetry.Summarize", parent)
	fr.sum = fr.res.Summarize()
	tr.end(id)
	fr.runNs = int64(time.Since(t1))
	return fr, nil
}

// setupBuilds is how many times an untraced DES rep builds the roster
// and the fleet, one set-up sample each; it runs the last. One build
// takes 0.3-3 ms, too short to time alone on a noisy host.
const setupBuilds = 16

// desWorkload is a single cluster DES run per rep. Its traced reps
// record a span per Split and Decide call.
type desWorkload struct {
	horizon float64
	options func(seed int64) (clusterdes.Options, error)
}

func (w desWorkload) rep(seed int64, tr *tracer) (rep, error) {
	var r rep
	root := tr.begin("perfbench.rep", 0)
	defer tr.end(root)
	if tr == nil {
		for i := 1; i < setupBuilds; i++ {
			t0 := time.Now()
			opts, err := w.options(seed)
			if err != nil {
				return r, err
			}
			if _, err := clusterdes.New(opts); err != nil {
				return r, err
			}
			r.setupNs = append(r.setupNs, int64(time.Since(t0)))
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	id := tr.begin("clusterdes.Uniform", root)
	opts, err := w.options(seed)
	tr.end(id)
	rosterNs := int64(time.Since(t0))
	if err != nil {
		return r, err
	}
	fr, err := runFleet(opts, w.horizon, tr, root, true)
	if err != nil {
		return r, err
	}
	runtime.ReadMemStats(&m1)
	r.setupNs = append(r.setupNs, rosterNs+fr.newNs)
	r.runNs = fr.runNs
	r.allocB = m1.TotalAlloc - m0.TotalAlloc
	r.tally.add(fr)
	r.sim = sim{
		P99Ms:       fr.res.Latency.P99 * 1e3,
		QoSPct:      fr.sum.QoSAttainment * 100,
		EnergyKJ:    fr.sum.TotalEnergyJ / 1e3,
		FailedPct:   failedPct(r.tally),
		Fingerprint: fingerprint(fr.res.Fleet),
	}
	return r, nil
}

// failedPct is the share of offered requests dropped, timed out,
// lost, or offered in a run whose ledger does not balance.
func failedPct(t tally) float64 {
	return 100 * float64(t.failed) / float64(t.requests)
}

// tuneSearchSeed is the search-stream seed, the CLI's default; the
// workload seed picks only the training days. A search seed that
// followed it would evaluate different configurations at every seed,
// which spread the allocation of a rep by 28% over five seeds.
const tuneSearchSeed = 42

// tuneWorkers is the tuner's pool size, fixed so results and
// allocations do not depend on the host's core count.
const tuneWorkers = 2

// tuneRep runs `hipster tune -train-seeds s,s+1` with its other
// defaults — the baseline that sets the energy budget, then the seeded
// hill climb — with two changes. Each evaluation's day ends in the
// drain tail. And the climbs never stop early: two climbs (the default
// point and one restart) of exactly 12 rounds, 196 search evaluations
// at every seed, instead of four climbs that stop after 2 rounds
// without improvement, which made 120 to 264. Its evaluator builds,
// runs and summarizes each fleet itself, so every evaluation's ledger
// is checked.
func tuneRep(seed int64, tr *tracer) (rep, error) {
	var r rep
	// The tuner's default 300 s bursty day, followed by the drain tail.
	day := loadgen.Spike{Base: 0.35, Peak: 0.75, EverySecs: 100, SpikeSecs: 30, Horizon: 300}
	ev := tuning.FleetEvaluator{
		Nodes:    6,
		Workload: workload.WebSearch(),
		Pattern:  withDrain(day),
		Horizon:  day.Horizon + drainSecs,
		MinNodes: 2,
	}
	space, err := ev.Space()
	if err != nil {
		return r, err
	}
	seeds := []int64{seed, seed + 1}
	root := tr.begin("perfbench.rep", 0)
	defer tr.end(root)
	parent := root

	var mu sync.Mutex
	// Fleet traces by evaluation, fingerprinted once the clock stops.
	traces := map[string][]*telemetry.FleetTrace{}
	var newNs int64
	evaluate := func(p tuning.Point, s int64) (tuning.Metrics, error) {
		id := tr.begin("tuning.Evaluate", parent)
		defer tr.end(id)
		opts, err := ev.FleetOptions(space, p, s)
		if err != nil {
			return tuning.Metrics{}, err
		}
		fr, err := runFleet(opts, ev.Horizon, tr, id, false)
		if err != nil {
			return tuning.Metrics{}, err
		}
		mu.Lock()
		defer mu.Unlock()
		newNs += fr.newNs
		r.tally.add(fr)
		key := fmt.Sprintf("%s|%d", space.Key(p), s)
		traces[key] = append(traces[key], fr.res.Fleet)
		// The metrics clusterdes.Evaluate reports.
		return tuning.Metrics{
			P99:           fr.res.Latency.P99,
			QoSAttainment: fr.sum.QoSAttainment,
			EnergyJ:       fr.sum.TotalEnergyJ,
			MeanPowerW:    fr.sum.TotalEnergyJ / ev.Horizon,
			Requests:      fr.res.Stats.Requests,
			Completed:     fr.res.Latency.Completed,
		}, nil
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var capW float64
	for _, s := range seeds {
		m, err := evaluate(space.Default(), s)
		if err != nil {
			return r, fmt.Errorf("baseline evaluation under seed %d: %w", s, err)
		}
		capW += m.MeanPowerW
	}
	tune := tr.begin("tuning.Tune", root)
	parent = tune
	res, err := tuning.Tune(tuning.Options{
		Space:     space,
		Evaluate:  evaluate,
		Seeds:     seeds,
		Seed:      tuneSearchSeed,
		Neighbors: 4,
		MaxRounds: 12,
		Patience:  12,
		Restarts:  1,
		Workers:   tuneWorkers,
		Weights:   tuning.Weights{P99: 1, QoSMiss: 5, PowerW: 0.1, PowerCapW: capW / float64(len(seeds))},
	})
	tr.end(tune)
	r.runNs = int64(time.Since(t0))
	if err != nil {
		return r, err
	}
	runtime.ReadMemStats(&m1)
	r.allocB = m1.TotalAlloc - m0.TotalAlloc
	r.setupNs = []int64{newNs}
	r.tally.tuneEvals = r.tally.runs - len(seeds)
	r.tally.tuneConfigs = len(res.Evaluations)
	r.tally.tuneRounds = res.Rounds
	r.tally.winnerScore = res.Winner.Score

	// The baseline repeats the default point's evaluations; a repeat
	// must reproduce its fleet trace.
	keys := make([]string, 0, len(traces))
	for k := range traces {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fp := fingerprint(traces[k][0])
		for _, ft := range traces[k][1:] {
			if fingerprint(ft) != fp {
				r.tally.badRuns++
			}
		}
		fmt.Fprintf(h, "%s=%x\n", k, fp)
	}
	var p99, qos, energy float64
	for _, m := range res.Winner.PerSeed {
		p99 += m.P99
		qos += m.QoSAttainment
		energy += m.EnergyJ
	}
	n := float64(len(res.Winner.PerSeed))
	r.sim = sim{
		P99Ms:       p99 / n * 1e3,
		QoSPct:      qos / n * 100,
		EnergyKJ:    energy / n / 1e3,
		FailedPct:   failedPct(r.tally),
		Fingerprint: h.Sum64(),
		Winner:      res.Winner.Key,
		Score:       res.Winner.Score,
	}
	return r, nil
}
