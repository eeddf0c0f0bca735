package main

import "fmt"

// spec is one metric the benchmark reports. The table is the single list
// of names and units: BENCHMARK.json must agree with it (a test checks).
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Layer  bool   // per-layer (reported with --trace 1) rather than end to end
	// Source says where the value comes from, for the printed report.
	Source string
	// Ungated, for an end-to-end metric, says why it is printed and kept
	// in the report but not listed in BENCHMARK.json, so no bound gates it.
	Ungated string
}

// unsteadyUnderSteal is why the mean- and tail-driven end-to-end metrics
// are not gated: on a shared 2-vCPU host, CPU steal from other tenants
// stretches the slowest requests while the median request stays put.
const unsteadyUnderSteal = "host CPU steal moved it 1.5-2x across one set of ten runs while rec_p50_us moved 10%"

var specs = []spec{
	{Name: "rec_per_s", Unit: "1/s", Better: "higher", Source: "recommends answered OK per second, closed loop", Ungated: unsteadyUnderSteal},
	{Name: "rec_p50_us", Unit: "us", Better: "lower", Source: "send to response; a batch's recommends share its round trip"},
	{Name: "rec_p99_us", Unit: "us", Better: "lower", Source: "send to response; a batch's recommends share its round trip", Ungated: unsteadyUnderSteal},
	{Name: "event_p50_us", Unit: "us", Better: "lower", Source: "scheduled send to acknowledgement, open loop", Ungated: unsteadyUnderSteal},
	{Name: "event_p99_us", Unit: "us", Better: "lower", Source: "scheduled send to acknowledgement, open loop", Ungated: unsteadyUnderSteal},
	{Name: "setup_s", Unit: "s", Better: "lower", Source: "spawn to listening banner, median of the run's spawns"},
	{Name: "daemon_rss_mb", Unit: "MiB", Better: "lower", Source: "median VmRSS over the timed window (peak in the base)"},
	{Name: "daemon_cpu_us_per_op", Unit: "us", Better: "lower", Source: "utime+stime over the timed window / ops completed", Ungated: "it follows the host's speed and GC timing: its median moved 41% between two sets of ten runs"},

	{Name: "wal.write_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced Log.Append"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower", Layer: true, Source: "traced Log.Sync at the workload's cadence"},
	{Name: "wal.fsyncs_per_op", Unit: "count/op", Better: "lower", Layer: true, Source: "scrape wal.syncs"},
	{Name: "wal.appends_per_op", Unit: "count/op", Better: "lower", Layer: true, Source: "scrape wal.appends"},
	{Name: "wal.bytes_per_op", Unit: "B/op", Better: "lower", Layer: true, Source: "WAL directory growth"},
	{Name: "journal.encode_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced Record.Encode"},
	{Name: "journal.bytes_per_record", Unit: "B", Better: "lower", Layer: true, Source: "traced Record.Encode output"},
	{Name: "compiled.lookup_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced Policy.Lookup"},
	{Name: "compiled.rebuild_ms", Unit: "ms", Better: "lower", Layer: true, Source: "traced cache rebuild after a learn step"},
	{Name: "compiled.hit_frac", Unit: "ratio", Better: "higher", Layer: true, Source: "scrape policy.compiled.hits/misses"},
	{Name: "compiled.rebuilds_per_event", Unit: "count/event", Better: "lower", Layer: true, Source: "scrape policy.compiled.rebuilds"},
	{Name: "eval.agent_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced System.RecommendDecision, agent path"},
	{Name: "learn.observe_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced System.ObserveTransition"},
	{Name: "learn.step_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced System.LearnOnline"},
	{Name: "learn.steps_per_event", Unit: "count/event", Better: "lower", Layer: true, Source: "scrape jarvisd.online.learn_steps"},
	{Name: "audit.ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced Table.SafeTransition"},
	{Name: "audit.checks_per_op", Unit: "count/op", Better: "lower", Layer: true, Source: "scrape policy.audit.checks"},
	{Name: "wire.parse_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced wire.ParseRequest"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced wire.AppendResponse"},
	{Name: "json.decode_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced json.Unmarshal of a request"},
	{Name: "json.encode_ns", Unit: "ns", Better: "lower", Layer: true, Source: "traced json.Marshal of a response"},
	{Name: "server.batch_size", Unit: "count", Better: "higher", Layer: true, Source: "scrape requests / jarvisd.request.latency count"},
	{Name: "server.shared_eval_frac", Unit: "ratio", Better: "higher", Layer: true, Source: "scrape server.wire.shared_evals / recommends"},
	{Name: "server.net_us", Unit: "us", Better: "lower", Layer: true, Source: "client round-trip p50 - daemon request.latency p50"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: true, Source: "traced / untraced wall time of the same sequence - 1"},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// value is one measured metric: the median of its samples (sub-windows,
// spawns, calls) with their quartiles, and what it was computed from.
type value struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"samples"`
	Base  string  `json:"base"` // e.g. "fsyncs 152041 / ops 152040"
	// NA marks a layer the workload does not run; the value is then 0.
	NA bool `json:"not_applicable,omitempty"`
}

// metrics collects one run's values by name.
type metrics map[string]value

func mustSpec(name string) {
	if _, ok := lookupSpec(name); !ok {
		panic("servebench: metric " + name + " is not in the spec table")
	}
}

// set records a single reading.
func (m metrics) set(name string, v float64, base string, args ...any) {
	mustSpec(name)
	m[name] = value{Value: v, Q1: v, Q3: v, N: 1, Base: fmt.Sprintf(base, args...)}
}

// setMedian records the median of samples, with their quartiles.
func (m metrics) setMedian(name string, samples []float64, base string, args ...any) {
	mustSpec(name)
	q1, q2, q3 := quartiles(samples)
	m[name] = value{Value: q2, Q1: q1, Q3: q3, N: len(samples), Base: fmt.Sprintf(base, args...)}
}

func (m metrics) na(name, why string) {
	mustSpec(name)
	m[name] = value{Base: why, NA: true}
}

// ratio sets name to num/den, or marks it not applicable when den is 0.
func (m metrics) ratio(name string, num, den float64, numName, denName, naWhy string) {
	if den == 0 {
		m.na(name, naWhy)
		return
	}
	m.set(name, num/den, "%s %.0f / %s %.0f", numName, num, denName, den)
}

// medianNs sets name to the median of a span's self times, scaled to the
// metric's unit, or marks it not applicable when the span never ran.
func (m metrics) medianNs(name string, self []int64, scale float64, naWhy string) {
	if len(self) == 0 {
		m.na(name, naWhy)
		return
	}
	xs := make([]float64, len(self))
	for i, v := range self {
		xs[i] = float64(v) / scale
	}
	m.setMedian(name, xs, "%d calls", len(xs))
}

// names returns the collected names in spec order, so every report
// prints in the same order.
func (m metrics) names() []string {
	var out []string
	for _, s := range specs {
		if _, ok := m[s.Name]; ok {
			out = append(out, s.Name)
		}
	}
	return out
}
