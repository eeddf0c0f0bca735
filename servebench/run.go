package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"jarvis/internal/replay"
	"jarvis/internal/telemetry"
	"jarvis/internal/trace"
	"jarvis/internal/wal"
)

// Fixed settings of every run.
const (
	spawns       = 3                      // daemon spawns per run; setup_s is their median
	window       = time.Second            // sub-window: rates, p50s, rec p99 and CPU per op are medians over them
	warmup       = time.Second            // untimed traffic before the timed window
	traceEvents  = 200                    // events in the traced in-process sequence
	traceRounds  = 16                     // most recommend round trips between two traced events
	startTimeout = 2 * time.Minute        // how long one daemon spawn may take to listen
	maxLateness  = 100 * time.Millisecond // latest the generator may send an event before the run is invalid
)

// options are what one invocation varies.
type options struct {
	Seed    int64
	Seconds int
	Trace   bool
	Jarvisd string
	Work    string
}

// check is one correctness check's outcome.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// runResult is one timed run of one workload (plus its traced run).
type runResult struct {
	E2E       metrics
	Layer     metrics
	Attempted int
	Failed    int
	Checks    []check
	// Lateness of the open-loop generator over the timed window.
	LateP99Us, LateMaxUs float64
	Revision             string
	DaemonGo             string
	Traces               []*trace.TraceData
	TracedOps            int
}

func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

func (r *runResult) addCheck(ok bool, name, detail string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...)})
	if !ok {
		r.Failed++
	}
}

// errInvalid marks a run whose measurement itself is unusable (the
// generator fell behind, too few samples): it is not reported at all.
var errInvalid = errors.New("invalid run")

// daemonRun is one daemon driven through a warm-up and the timed window.
// Run times are nanosecond offsets from base, the schedule's origin.
type daemonRun struct {
	w      workload
	s      *stream
	evs    []event // warm-up events, then the timed window's
	warm   int     // events scheduled before the timed window
	d      *daemon
	walDir string

	base       time.Time
	cuts       []time.Time // t0, the sub-window ends, t1
	ticks      []int64     // daemon CPU ticks at each cut
	rss        []float64   // daemon VmRSS (MiB) at each cut
	p0, pA, pB probe       // before any traffic, at t0, at t1
	hub        *hubRun
	rec        *recRun
}

func (ss *daemonRun) off(t time.Time) int64 { return t.Sub(ss.base).Nanoseconds() }

// runWorkload spawns the daemon several times, drives the last one through
// a warm-up and the timed window, checks its outputs, and, with o.Trace,
// follows with the in-process traced run.
func runWorkload(w workload, o options, log io.Writer) (*runResult, error) {
	warm := int(warmup.Seconds() * float64(w.HubRate))
	s, err := newStream(o.Seed, warm+o.Seconds*w.HubRate)
	if err != nil {
		return nil, fmt.Errorf("event stream: %w", err)
	}
	dir, err := os.MkdirTemp(o.Work, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &runResult{E2E: metrics{}, Layer: metrics{}}
	ss := &daemonRun{w: w, s: s, evs: s.Events[:warm+o.Seconds*w.HubRate], warm: warm}
	var setups []float64
	for i := 0; i < spawns; i++ {
		ss.walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		d, err := startDaemon(o.Jarvisd, w.daemonArgs(ss.walDir, s.FixedMinute), runtime.NumCPU(), startTimeout)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Setup.Seconds())
		if i == spawns-1 {
			ss.d = d
		} else if err := d.stop(true); err != nil {
			return nil, err
		}
	}
	res.E2E.setMedian("setup_s", setups, "%d spawns", len(setups))

	if err := ss.drive(o); err != nil {
		_ = ss.d.stop(false)
		return nil, err
	}
	if err := ss.verify(res); err != nil {
		return nil, err
	}
	if err := ss.endToEnd(res, o); err != nil {
		return nil, err
	}
	if !o.Trace {
		return res, nil
	}
	events := min(traceEvents, len(s.Events))
	seq := tracedSequence(events, float64(len(ss.rec.Start))/float64(len(ss.evs)), traceRounds)
	fmt.Fprintf(log, "servebench: traced run: %d ops, %d of them events\n", len(seq), events)
	tr, err := runTraced(w, s, seq, dir)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(seq)
	res.Failed += tr.Failures
	res.addCheck(tr.Failures == 0, "traced run", "%d failed calls or unexpected states in %d ops", tr.Failures, len(seq))
	res.Traces, res.TracedOps = tr.Traces, tr.Ops
	tracedLayers(res.Layer, w, tr)
	return res, nil
}

// drive runs the hub and the recommend connection through the warm-up and
// the timed window. The window is cut into sub-windows whose medians damp
// transient interference; the daemon's CPU time and resident memory are
// read at every cut, and /metrics at both ends.
func (ss *daemonRun) drive(o options) error {
	w, d := ss.w, ss.d
	hub, err := dial(d.Addr, w.Codec, ss.s.Home.Env)
	if err != nil {
		return err
	}
	defer hub.Close()
	rc, err := dial(d.Addr, w.Codec, ss.s.Home.Env)
	if err != nil {
		return err
	}
	defer rc.Close()
	if ss.p0, err = d.probe(ss.walDir); err != nil {
		return err
	}

	nwin := max(int(time.Duration(o.Seconds)*time.Second/window), 1)
	ss.base = time.Now().Add(20 * time.Millisecond)
	t0 := ss.base.Add(time.Duration(ss.warm) * time.Second / time.Duration(w.HubRate))
	ss.cuts = make([]time.Time, nwin+1)
	for k := range ss.cuts {
		ss.cuts[k] = t0.Add(time.Duration(k) * time.Duration(o.Seconds) * time.Second / time.Duration(nwin))
	}
	ss.ticks = make([]int64, nwin+1)
	ss.rss = make([]float64, nwin+1)
	done := make(chan struct{}, 2)
	go func() { ss.hub = runHub(hub, ss.evs, w.HubRate, ss.base); done <- struct{}{} }()
	go func() { ss.rec = runRecs(rc, w.Batch, ss.base, ss.cuts[nwin]); done <- struct{}{} }()
	var errs []error
	for k, cut := range ss.cuts {
		time.Sleep(time.Until(cut))
		var err, rerr error
		switch k {
		case 0:
			ss.pA, err = d.probe(ss.walDir)
			ss.ticks[k] = ss.pA.CPUTicks
		case nwin:
			ss.pB, err = d.probe(ss.walDir)
			ss.ticks[k] = ss.pB.CPUTicks
		default:
			ss.ticks[k], err = cpuTicks(d.pid())
		}
		ss.rss[k], rerr = rssMiB(d.pid(), "VmRSS")
		errs = append(errs, err, rerr)
	}
	<-done
	<-done
	if ss.hub.Err == nil {
		// The hub connection is quiet now: ask for the ingest counters the
		// learnstate check compares.
		ss.hub.DaemonEvents, ss.hub.DaemonRecs, ss.hub.LearnErr = learnState(hub)
	}
	return errors.Join(errs...)
}

// verify runs the correctness checks, stopping the daemon on the way: the
// WAL is read only after a clean shutdown.
func (ss *daemonRun) verify(res *runResult) error {
	hr, rr, d := ss.hub, ss.rec, ss.d
	pEnd, err := d.probe(ss.walDir)
	if err != nil {
		_ = d.stop(false)
		return err
	}
	hwm, err := rssMiB(d.pid(), "VmHWM")
	if err != nil {
		_ = d.stop(false)
		return err
	}
	// Resident memory swings with every GC cycle (each compiled rebuild
	// drops a whole table), so the value is the median of the samples
	// taken at the window cuts; the peak is kept alongside.
	res.E2E.setMedian("daemon_rss_mb", ss.rss, "VmRSS at %d cuts; peak (VmHWM) %.1f MiB", len(ss.rss), hwm)
	serr := d.stop(false)

	res.Attempted = len(ss.evs) + rr.Sent + 1 // + the learnstate query
	unacked := 0
	for _, at := range hr.Acked {
		if at < 0 {
			unacked++
		}
	}
	res.Failed += hr.failed() + unacked + rr.failed()
	res.addCheck(hr.Err == nil && rr.Err == nil, "transport", "hub: %v; recommend: %v", hr.Err, rr.Err)
	res.addCheck(hr.Busy+hr.Errors+rr.Busy+rr.Errors+unacked == 0, "responses OK",
		"events %d OK, %d busy, %d errors, %d unacknowledged; recommends %d OK, %d busy, %d errors",
		hr.OK+hr.Mismatch, hr.Busy, hr.Errors, unacked, rr.OK, rr.Busy, rr.Errors)
	res.addCheck(hr.Mismatch == 0, "event states", "%d of %d event responses carried the expected state", hr.OK, hr.OK+hr.Mismatch)
	ackedEvents, ackedRecs := hr.OK+hr.Mismatch, rr.OK
	if hr.Err == nil {
		res.addCheck(hr.LearnErr == nil && hr.DaemonEvents == ackedEvents && hr.DaemonRecs == ackedRecs, "learnstate counts",
			"daemon events %d recommends %d, acknowledged %d / %d (%v)", hr.DaemonEvents, hr.DaemonRecs, ackedEvents, ackedRecs, hr.LearnErr)
	}
	denials := counterDelta(pEnd.Snap, ss.p0.Snap, "policy.audit.denials")
	unsafe := counterDelta(pEnd.Snap, ss.p0.Snap, "jarvisd.events.unsafe")
	res.addCheck(denials == unsafe, "P_safe invariant",
		"policy.audit.denials %d - jarvisd.events.unsafe %d = %d (events flagged unsafe: %d)", denials, unsafe, denials-unsafe, hr.Unsafe)
	res.addCheck(serr == nil, "clean shutdown", "%v", serr)
	if serr == nil {
		t := time.Now()
		evt, rec, err := walCounts(ss.walDir)
		res.addCheck(err == nil && evt >= ackedEvents && rec >= ackedRecs, "acknowledged => in WAL",
			"WAL holds %d evt / %d rec records for %d / %d acknowledged, read in %.1fs (%v)",
			evt, rec, ackedEvents, ackedRecs, time.Since(t).Seconds(), err)
	}
	if info := ss.p0.Snap.Infos["jarvisd.build.info"]; info != nil {
		res.Revision, res.DaemonGo = info["version"], info["goversion"]
	}
	return nil
}

// endToEnd computes the end-to-end metrics over the timed window, and the
// per-layer ones read from its /metrics deltas.
func (ss *daemonRun) endToEnd(res *runResult, o options) error {
	w, hr, rr := ss.w, ss.hub, ss.rec
	nwin := len(ss.cuts) - 1
	t0, span := ss.off(ss.cuts[0]), ss.off(ss.cuts[nwin])-ss.off(ss.cuts[0])
	// slice maps a scheduled event to its slice when the window is cut in n.
	slice := func(i, n int) int { return int((hr.Sched[i] - t0) * int64(n) / span) }

	var late []float64
	evLat := make([][]float64, nwin)
	var allEv []float64
	for i := ss.warm; i < len(ss.evs); i++ {
		late = append(late, float64(hr.Lateness[i])/1e3)
		if hr.Acked[i] >= 0 {
			lat := float64(hr.Acked[i]-hr.Sched[i]) / 1e3
			evLat[slice(i, nwin)] = append(evLat[slice(i, nwin)], lat)
			allEv = append(allEv, lat)
		}
	}
	sort.Float64s(late)
	res.LateP99Us, res.LateMaxUs = percentile(late, 99), percentile(late, 100)
	if time.Duration(res.LateMaxUs*1e3) > maxLateness {
		return fmt.Errorf("%w: the generator fell behind (max lateness %.0fus > %s)", errInvalid, res.LateMaxUs, maxLateness)
	}
	rtt := make([][]float64, nwin)
	var allRtt []float64
	for i := range rr.Start {
		k := sort.Search(nwin, func(k int) bool { return ss.off(ss.cuts[k+1]) > rr.Start[i] })
		if k < nwin && rr.Start[i] >= ss.off(ss.cuts[k]) && rr.End[i] <= ss.off(ss.cuts[k+1]) {
			v := float64(rr.End[i]-rr.Start[i]) / 1e3
			rtt[k] = append(rtt[k], v)
			allRtt = append(allRtt, v)
		}
	}
	sort.Float64s(allRtt)

	var rate, r50, r99, e50, cpu []float64
	winSecs := float64(o.Seconds) / float64(nwin)
	for k := 0; k < nwin; k++ {
		n := len(rtt[k]) * w.Batch
		if !qualified(n, 99) || !qualified(len(evLat[k]), 50) {
			return fmt.Errorf("%w: window %d has %d recommends and %d events, too few for p99 and p50; lengthen -window",
				errInvalid, k, n, len(evLat[k]))
		}
		sort.Float64s(rtt[k])
		sort.Float64s(evLat[k])
		rate = append(rate, float64(n)/winSecs)
		r50 = append(r50, batchPercentile(rtt[k], w.Batch, 50))
		r99 = append(r99, batchPercentile(rtt[k], w.Batch, 99))
		e50 = append(e50, percentile(evLat[k], 50))
		cpu = append(cpu, float64(ss.ticks[k+1]-ss.ticks[k])*1e6/clockTicks/float64(n+len(evLat[k])))
	}
	// The event tail needs 1000 events per slice for ten beyond its p99,
	// so it is the median over as many equal slices as hold that many.
	slices := max(len(allEv)/(100*minBeyond), 1)
	e99s := make([][]float64, slices)
	for i := ss.warm; i < len(ss.evs); i++ {
		if hr.Acked[i] >= 0 {
			e99s[slice(i, slices)] = append(e99s[slice(i, slices)], float64(hr.Acked[i]-hr.Sched[i])/1e3)
		}
	}
	var e99 []float64
	for k, xs := range e99s {
		if !qualified(len(xs), 99) {
			return fmt.Errorf("%w: event slice %d has %d events, too few for p99; run longer", errInvalid, k, len(xs))
		}
		sort.Float64s(xs)
		e99 = append(e99, percentile(xs, 99))
	}

	recs := len(allRtt) * w.Batch
	ops := float64(len(allEv) + recs)
	cpuUs := float64(ss.pB.CPUTicks-ss.pA.CPUTicks) * 1e6 / clockTicks
	per := fmt.Sprintf("%d %.3gs windows", nwin, winSecs)
	res.E2E.setMedian("rec_per_s", rate, "%s; %d recs in %d s", per, recs, o.Seconds)
	res.E2E.setMedian("rec_p50_us", r50, "%s; n=%d recs, %d round trips", per, recs, len(allRtt))
	res.E2E.setMedian("rec_p99_us", r99, "%s; n=%d recs, >=%d beyond in each", per, recs, minBeyond)
	res.E2E.setMedian("event_p50_us", e50, "%s; n=%d events", per, len(allEv))
	res.E2E.setMedian("event_p99_us", e99, "%d slices of >=%d events; n=%d events", slices, 100*minBeyond, len(allEv))
	res.E2E.setMedian("daemon_cpu_us_per_op", cpu, "%s; cpu %.0fus / ops %.0f over the whole window", per, cpuUs, ops)
	scrapeLayers(res.Layer, w, ss.pA, ss.pB, float64(len(allEv)), ops, percentile(allRtt, 50))
	return nil
}

// batchPercentile reads percentile p over recommends when each round trip
// in sorted carries batch of them, all with that round trip's time.
func batchPercentile(sorted []float64, batch int, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(rank(len(sorted)*batch, p)-1)/batch]
}

func counterDelta(cur, prev *telemetry.Snapshot, name string) int64 {
	return cur.Counters[name] - prev.Counters[name]
}

// scrapeLayers fills the per-layer metrics read from /metrics deltas over
// the timed window.
func scrapeLayers(m metrics, w workload, pA, pB probe, events, ops, rttP50Us float64) {
	c := func(name string) float64 { return float64(counterDelta(pB.Snap, pA.Snap, name)) }
	m.ratio("wal.fsyncs_per_op", c("wal.syncs"), ops, "fsyncs", "ops", "no ops")
	m.ratio("wal.appends_per_op", c("wal.appends"), ops, "appends", "ops", "no ops")
	m.ratio("wal.bytes_per_op", float64(pB.WALBytes-pA.WALBytes), ops, "WAL bytes", "ops", "no ops")
	hits, misses := c("policy.compiled.hits"), c("policy.compiled.misses")
	m.ratio("compiled.hit_frac", hits, hits+misses, "hits", "lookups", "no compiled table (refused)")
	if w.DNN {
		m.na("compiled.rebuilds_per_event", "no compiled table (refused)")
	} else {
		m.ratio("compiled.rebuilds_per_event", c("policy.compiled.rebuilds"), events, "rebuilds", "events", "no events")
	}
	m.ratio("learn.steps_per_event", c("jarvisd.online.learn_steps"), events, "learn steps", "events", "no events")
	m.ratio("audit.checks_per_op", c("policy.audit.checks"), ops, "audit checks", "ops", "no ops")
	var reqs float64
	for name := range pB.Snap.Counters {
		if len(name) > len("jarvisd.requests{") && name[:len("jarvisd.requests{")] == "jarvisd.requests{" {
			reqs += c(name)
		}
	}
	lat, latPrev := pB.Snap.Histograms["jarvisd.request.latency"], pA.Snap.Histograms["jarvisd.request.latency"]
	m.ratio("server.batch_size", reqs, float64(lat.Count-latPrev.Count), "requests", "request.latency observations", "no requests")
	if w.Codec == "binary" {
		m.ratio("server.shared_eval_frac", c("server.wire.shared_evals"), c(`jarvisd.requests{op="recommend"}`),
			"shared evaluations", "recommends", "no recommends")
	} else {
		m.na("server.shared_eval_frac", "JSON serves one request per evaluation")
	}
	if p50, ok := telemetry.DeltaQuantile(lat, latPrev, 0.5); ok {
		m.set("server.net_us", rttP50Us-float64(p50)/1e3, "round trip p50 %.1fus - daemon request.latency p50 %.1fus", rttP50Us, float64(p50)/1e3)
	} else {
		m.na("server.net_us", "no request.latency observations")
	}
}

// tracedLayers fills the per-layer metrics from the traced run's span
// self times.
func tracedLayers(m metrics, w workload, tr *tracedRun) {
	m.medianNs("wal.write_ns", tr.Self["wal.append"], 1, "no appends")
	m.medianNs("wal.fsync_us", tr.Self["wal.sync"], 1e3, "no fsync fell due")
	m.medianNs("journal.encode_ns", tr.Self["journal.encode"], 1, "no records")
	var bytes float64
	for _, b := range tr.RecBytes {
		bytes += float64(b)
	}
	m.ratio("journal.bytes_per_record", bytes, float64(len(tr.RecBytes)), "bytes", "records", "no records")
	m.medianNs("compiled.lookup_ns", tr.Self["compiled.lookup"], 1, "no compiled table (refused)")
	m.medianNs("compiled.rebuild_ms", tr.Self["compiled.rebuild"], 1e6, "no compiled table (refused)")
	m.medianNs("eval.agent_ns", tr.Self["eval.agent"], 1, "every recommend hit the compiled table")
	m.medianNs("learn.observe_ns", tr.Self["learn.observe"], 1, "no events")
	m.medianNs("learn.step_ns", tr.Self["learn.step"], 1, "no learn steps")
	m.medianNs("audit.ns", tr.Self["audit"], 1, "no audits")
	m.medianNs("wire.parse_ns", tr.Self["wire.parse"], 1, "JSON workload")
	m.medianNs("wire.encode_ns", tr.Self["wire.encode"], 1, "JSON workload")
	m.medianNs("json.decode_ns", tr.Self["json.decode"], 1, "binary workload")
	m.medianNs("json.encode_ns", tr.Self["json.encode"], 1, "binary workload")
	m.set("trace.overhead_frac", tr.Traced.Seconds()/tr.Untraced.Seconds()-1,
		"traced %.3fs / untraced %.3fs over %d ops", tr.Traced.Seconds(), tr.Untraced.Seconds(), tr.Ops)
}

// walCounts reads the stopped daemon's WAL and counts the evt and rec
// records that decode. Decoding fans out over the CPUs: a home-mix WAL
// holds millions of records.
func walCounts(dir string) (evt, rec int, err error) {
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncOnRotate})
	if err != nil {
		return 0, 0, err
	}
	type count struct {
		evt, rec int
		err      error
	}
	workers := runtime.NumCPU()
	batches := make(chan [][]byte, workers) // one batch queued per worker keeps them all busy
	counts := make(chan count, workers)
	for i := 0; i < workers; i++ {
		go func() {
			var c count
			for batch := range batches {
				for _, b := range batch {
					r, derr := replay.DecodeRecord(b)
					switch {
					case derr != nil:
						c.err = derr
					case r.K == replay.KindEvent:
						c.evt++
					case r.K == replay.KindRecommend:
						c.rec++
					}
				}
			}
			counts <- c
		}()
	}
	var batch [][]byte
	err = l.Replay(func(b []byte) error {
		batch = append(batch, append([]byte(nil), b...))
		if len(batch) == 4096 {
			batches <- batch
			batch = nil
		}
		return nil
	})
	batches <- batch
	close(batches)
	for i := 0; i < workers; i++ {
		c := <-counts
		evt, rec = evt+c.evt, rec+c.rec
		if err == nil && c.err != nil {
			err = fmt.Errorf("undecodable WAL record: %w", c.err)
		}
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return evt, rec, err
}
