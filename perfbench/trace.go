package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hipster/internal/cluster"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/rl"
)

// span is one timed call into a layer, recorded by the benchmark
// around the hooks the program exposes. A span with Calls > 0 is an
// aggregate: Calls calls into the layer whose summed duration is
// BusyNs, placed inside its parent's interval.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Calls    int    `json:"calls,omitempty"`
	BusyNs   int64  `json:"busy_ns,omitempty"`
}

// dur is the time the span accounts for: its interval, or for an
// aggregate the summed duration of its calls.
func (s span) dur() int64 {
	if s.Calls > 0 {
		return s.BusyNs
	}
	return s.EndNs - s.StartNs
}

// layer is the name's prefix before the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps the spans of one traced rep in memory. It is safe for
// concurrent use: tune-cli evaluations record from the tuner's pool.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id; on a nil tracer it records
// nothing and returns 0, as do end and interval.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: start})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNs = end
	t.mu.Unlock()
}

// interval returns span id's start and end.
func (t *tracer) interval(id int) (int64, int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.StartNs, s.EndNs
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	s.Workload = t.workload
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// hook counts the calls through one wrapped layer hook of one fleet
// and times each. With perCall set every call is also a span;
// otherwise flush records a single aggregate span. A fleet calls its
// hooks only from its coordinator's serial section, so a hook needs no
// lock of its own.
type hook struct {
	name    string
	tr      *tracer
	perCall bool
	parent  int // the enclosing clusterdes.Run span
	calls   int
	busyNs  int64
}

func (h *hook) start() int64 { return h.tr.now() }

func (h *hook) stop(start int64) {
	end := h.tr.now()
	h.calls++
	h.busyNs += end - start
	if h.perCall {
		h.tr.add(span{Parent: h.parent, Name: h.name, StartNs: start, EndNs: end})
	}
}

// flush records the aggregate span of a hook that did not record its
// calls one by one, spanning the parent's interval [from, to].
func (h *hook) flush(from, to int64) {
	if h.perCall || h.calls == 0 {
		return
	}
	h.tr.add(span{Parent: h.parent, Name: h.name, StartNs: from, EndNs: to, Calls: h.calls, BusyNs: h.busyNs})
}

// tracedSplitter times every Split of the splitter it wraps.
type tracedSplitter struct {
	inner cluster.Splitter
	h     *hook
}

func (s tracedSplitter) Name() string { return s.inner.Name() }

func (s tracedSplitter) Split(ctx cluster.SplitContext) []float64 {
	t := s.h.start()
	out := s.inner.Split(ctx)
	s.h.stop(t)
	return out
}

// learner is the full method set of the default node policy. The
// tracing wrapper forwards every optional interface the DES and the
// federation probe for; dropping one would silently change learning,
// which the traced-equals-untraced check catches.
type learner interface {
	policy.Policy
	policy.Phaser
	policy.RewardReporter
	policy.Episodic
	policy.TableProvider
}

// tracedPolicy times every Decide of the policy it wraps.
type tracedPolicy struct {
	inner learner
	h     *hook
}

func wrapPolicy(p policy.Policy, h *hook) (policy.Policy, error) {
	l, ok := p.(learner)
	if !ok {
		return nil, fmt.Errorf("policy %s lacks an optional interface the wrapper forwards", p.Name())
	}
	return tracedPolicy{inner: l, h: h}, nil
}

func (p tracedPolicy) Name() string { return p.inner.Name() }
func (p tracedPolicy) Reset()       { p.inner.Reset() }

func (p tracedPolicy) Decide(obs policy.Observation) platform.Config {
	t := p.h.start()
	cfg := p.inner.Decide(obs)
	p.h.stop(t)
	return cfg
}

func (p tracedPolicy) Phase() string               { return p.inner.Phase() }
func (p tracedPolicy) LastReward() (float64, bool) { return p.inner.LastReward() }
func (p tracedPolicy) EndEpisode()                 { p.inner.EndEpisode() }
func (p tracedPolicy) LiveTable() *rl.Table        { return p.inner.LiveTable() }

// selfNs returns, per span id, the span's duration minus the part of
// it its children cover: the union of the child intervals plus the
// busy time of aggregate children.
func selfNs(spans []span) []int64 {
	kids := make([][]span, len(spans)+1)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var covered int64
		var ivs [][2]int64
		for _, c := range kids[s.ID] {
			if c.Calls > 0 {
				covered += c.BusyNs
			} else {
				ivs = append(ivs, [2]int64{c.StartNs, c.EndNs})
			}
		}
		covered += unionNs(ivs)
		self[i] = s.dur() - covered
	}
	return self
}

// unionNs is the total length of the union of the intervals.
func unionNs(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, hi int64
	lo := int64(-1)
	for _, iv := range ivs {
		switch {
		case lo < 0:
			lo, hi = iv[0], iv[1]
		case iv[0] > hi:
			total += hi - lo
			lo, hi = iv[0], iv[1]
		case iv[1] > hi:
			hi = iv[1]
		}
	}
	if lo >= 0 {
		total += hi - lo
	}
	return total
}

// nameStat is the trace summary row of one span name.
type nameStat struct {
	Name  string  `json:"name"`
	Spans int     `json:"spans"`
	Calls int     `json:"calls"`
	TotS  float64 `json:"total_s"`
	SelfS float64 `json:"self_s"`
}

// summarizeSpans folds spans into per-name rows and per-layer self
// time.
func summarizeSpans(spans []span) ([]nameStat, map[string]float64) {
	self := selfNs(spans)
	rows := map[string]*nameStat{}
	layers := map[string]float64{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &nameStat{Name: s.Name}
			rows[s.Name] = r
		}
		r.Spans++
		r.Calls += max(s.Calls, 1)
		r.TotS += float64(s.dur()) / 1e9
		r.SelfS += float64(self[i]) / 1e9
		layers[s.layer()] += float64(self[i]) / 1e9
	}
	out := make([]nameStat, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out, layers
}

// writeTrace writes the spans of one traced rep and the summary of
// the traced run as JSON files under dir.
func writeTrace(dir, workload string, seed int64, spans []span, summary any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := writeJSON(base+".spans.json", map[string]any{"workload": workload, "seed": seed, "spans": spans}); err != nil {
		return err
	}
	return writeJSON(base+".summary.json", summary)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
