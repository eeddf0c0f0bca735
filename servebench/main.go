// Command servebench is the serving benchmark: it spawns a go-build-stamped
// jarvisd in the operator shape (WAL on at a stated -wal-sync, telemetry
// and the debug listener on, default training size), drives one workload
// from one process over two connections (an open-loop hub replaying a
// seeded ADL event stream, and a closed-loop recommend connection),
// checks every output, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the end-to-end metrics, or with --trace 1 the per-layer ones.
// Per-layer values come from /metrics deltas over the timed window and
// from a separate in-process run that replays the workload's op sequence
// with a span around every call into a layer.
//
// servebench/run.sh builds jarvisd and this command from source and runs
// it from the repository root:
//
//	bash servebench/run.sh --workload home-mix --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh --workload all --seed 1
//
// --workload all runs every workload, durable-mix included, with its
// traced run and prints both metric sets. Any failed correctness check
// exits non-zero; a run whose measurement is unusable (the generator fell
// behind, too few samples for a percentile) exits non-zero unreported.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jarvis/internal/trace"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: durable-mix | home-mix | json-dqn-mix | all")
	seed := fs.Int64("seed", 1, "workload seed: the event stream and the pinned minute-of-day")
	seconds := fs.Int("seconds", 20, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
	jarvisd := fs.String("jarvisd", "", "jarvisd binary to spawn (built by run.sh)")
	work := fs.String("work", ".bench_build/servebench", "directory for WALs, reports and Chrome traces")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	o := options{Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, Jarvisd: *jarvisd, Work: *work}
	if o.Jarvisd == "" {
		return 2, errors.New("need -jarvisd (run through servebench/run.sh)")
	}
	if o.Seconds < 1 {
		return 2, errors.New("--seconds must be at least 1")
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
		o.Trace = true
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			return 2, err
		}
		ws = []workload{w}
	}
	if err := os.MkdirAll(o.Work, 0o755); err != nil {
		return 2, err
	}

	final := result{Correct: true, Metrics: map[string]outMetric{}}
	for _, w := range ws {
		rep, err := runOne(w, o, out)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.Name, err)
		}
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		// One workload reports the set --trace asks for; all of them
		// report both, each name prefixed with its workload.
		sets := []metrics{rep.E2E, rep.Layer}
		if len(ws) == 1 && o.Trace {
			sets = sets[1:]
		} else if len(ws) == 1 {
			sets = sets[:1]
		}
		for _, set := range sets {
			for n, v := range set {
				key := n
				if len(ws) > 1 {
					key = w.Name + "." + n
				}
				sp, _ := lookupSpec(n)
				if sp.Ungated != "" {
					continue
				}
				final.Metrics[key] = outMetric{Value: v.Value, Unit: sp.Unit}
			}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(b))
	if !final.Correct {
		return 1, errors.New("correctness checks failed")
	}
	return 0, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's record: provenance, checks and every metric,
// printed and written to the work directory as JSON.
type report struct {
	Workload       string  `json:"workload"`
	Why            string  `json:"why"`
	Shape          string  `json:"shape"`
	WALSync        string  `json:"wal_sync"`
	HubRate        int     `json:"hub_events_per_s"`
	Seed           int64   `json:"seed"`
	DaemonSeed     int     `json:"daemon_seed"`
	FixedMinute    int     `json:"fixed_minute"`
	RunSeconds     int     `json:"run_seconds"`
	WarmupSeconds  float64 `json:"warmup_seconds"`
	WindowSeconds  float64 `json:"window_seconds"`
	Setups         int     `json:"spawns"`
	Revision       string  `json:"daemon_revision"`
	DaemonGo       string  `json:"daemon_go_version"`
	GoVersion      string  `json:"go_version"`
	NProc          int     `json:"nproc"`
	DaemonMaxProcs int     `json:"daemon_gomaxprocs"`
	BenchMaxProcs  int     `json:"benchmark_gomaxprocs"`
	GeneratedAt    string  `json:"generated_at"`
	LateP99Us      float64 `json:"generator_lateness_p99_us"`
	LateMaxUs      float64 `json:"generator_lateness_max_us"`
	Correct        bool    `json:"correct"`
	Attempted      int     `json:"attempted"`
	Failed         int     `json:"failed"`
	OpsFailedFrac  float64 `json:"ops_failed_frac"`
	Checks         []check `json:"checks"`
	E2E            metrics `json:"end_to_end"`
	Layer          metrics `json:"per_layer"`
	ChromeTrace    string  `json:"chrome_trace,omitempty"`
}

// runOne runs a workload once, prints every metric with its unit, its
// quartiles and its base, and writes the report.
func runOne(w workload, o options, out io.Writer) (*report, error) {
	fmt.Fprintf(out, "servebench: %s (seed %d, minute %d): %s\n", w.Name, o.Seed, fixedMinute(o.Seed), w.describe())
	if w.Unsteady != "" {
		fmt.Fprintf(out, "servebench: %s is left out of BENCHMARK.json: %s\n", w.Name, w.Unsteady)
	}
	r, err := runWorkload(w, o, out)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.Name, Why: w.Why, Shape: w.describe(), WALSync: w.WALSync, HubRate: w.HubRate,
		Seed: o.Seed, DaemonSeed: daemonSeed, FixedMinute: fixedMinute(o.Seed),
		RunSeconds: o.Seconds, WarmupSeconds: warmup.Seconds(), WindowSeconds: window.Seconds(), Setups: spawns,
		Revision: r.Revision, DaemonGo: r.DaemonGo, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		DaemonMaxProcs: runtime.NumCPU(), BenchMaxProcs: runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		LateP99Us:   r.LateP99Us, LateMaxUs: r.LateMaxUs,
		Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		OpsFailedFrac: float64(r.Failed) / float64(r.Attempted),
		Checks:        r.Checks, E2E: r.E2E, Layer: r.Layer,
	}
	if o.Trace {
		rep.ChromeTrace = filepath.Join(o.Work, fmt.Sprintf("trace-%s-seed%d.json", w.Name, o.Seed))
		if err := writeChrome(rep.ChromeTrace, r.Traces); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(out, "provenance: daemon %s (%s), benchmark %s, nproc %d, GOMAXPROCS daemon %d benchmark %d, "+
		"run %ds after %.0fs warm-up in %.0fs windows, %d spawns\n",
		orUnknown(rep.Revision), orUnknown(rep.DaemonGo), rep.GoVersion, rep.NProc,
		rep.DaemonMaxProcs, rep.BenchMaxProcs, rep.RunSeconds, rep.WarmupSeconds, rep.WindowSeconds, spawns)
	fmt.Fprintf(out, "generator lateness over the timed window: p99 %.0f us, max %.0f us (limit %s)\n",
		rep.LateP99Us, rep.LateMaxUs, maxLateness)
	fmt.Fprintln(out, "end to end (untraced; median [q1 q3] over the samples named in the base):")
	printSet(out, rep.E2E)
	fmt.Fprintf(out, "  %-28s %14.6f %-11s failed %d / attempted %d\n", "ops_failed_frac", rep.OpsFailedFrac, "ratio", rep.Failed, rep.Attempted)
	fmt.Fprintln(out, "  not gated by BENCHMARK.json:")
	for _, sp := range specs {
		if sp.Ungated != "" {
			fmt.Fprintf(out, "    %s: %s\n", sp.Name, sp.Ungated)
		}
	}
	fmt.Fprintln(out, "per layer (/metrics deltas over the timed window; traced in-process run):")
	printSet(out, rep.Layer)
	if o.Trace {
		fmt.Fprintf(out, "  Chrome trace of the traced run (%d ops): %s\n", r.TracedOps, rep.ChromeTrace)
	} else {
		fmt.Fprintln(out, "  (traced per-layer metrics need --trace 1)")
	}
	fmt.Fprintln(out, "  note: jarvisd.request.latency counts one observation per batch on the binary path (ROADMAP item 5),")
	fmt.Fprintln(out, "        so server.batch_size and server.net_us read it per round trip, not per request")
	fmt.Fprintln(out, "checks:")
	for _, c := range rep.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "  %s %-24s %s\n", verdict, c.Name, c.Detail)
	}
	path := filepath.Join(o.Work, fmt.Sprintf("report-%s-seed%d.json", w.Name, o.Seed))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "report: %s\n", path)
	return rep, nil
}

func printSet(out io.Writer, set metrics) {
	for _, n := range set.names() {
		v := set[n]
		sp, _ := lookupSpec(n)
		if v.NA {
			fmt.Fprintf(out, "  %-28s %14s %-11s (not on this workload's path: %s)\n", n, "n/a", sp.Unit, v.Base)
			continue
		}
		spread := ""
		if v.N > 1 {
			spread = fmt.Sprintf(" [%.6g %.6g]", v.Q1, v.Q3)
		}
		gate := ""
		if sp.Ungated != "" {
			gate = " (not gated)"
		}
		fmt.Fprintf(out, "  %-28s %14.6f %-11s%s %s; %s%s\n", n, v.Value, sp.Unit, spread, v.Base, sp.Source, gate)
	}
}

func writeChrome(path string, traces []*trace.TraceData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown (no VCS stamp)"
	}
	return s
}
