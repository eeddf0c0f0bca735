package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"jarvis/internal/compiled"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/replay"
	"jarvis/internal/rl"
	"jarvis/internal/trace"
	"jarvis/internal/wal"
	"jarvis/internal/wire"
)

// The traced run replays a workload's op sequence in process, through the
// same public calls the daemon makes for each op, with an internal/trace
// span around every call into a layer. The spans are the benchmark's own:
// the daemon's -trace-sample is not used, because a sampled recommend
// skips the compiled table and the batch memo and so times another path.
//
// Span names double as the per-layer metric sources:
//
//	wire.parse wire.encode         binary codec (ParseRequest, AppendResponse)
//	json.decode json.encode        JSON codec (encoding/json over the protocol shapes)
//	audit                          P_safe check (Table.SafeTransition)
//	journal.encode                 record codec (Record.Encode)
//	wal.append wal.sync            WAL (Log.Append on a SyncOnRotate log, Log.Sync at the workload's cadence)
//	compiled.lookup                compiled table (Policy.Lookup)
//	eval.agent                     agent path (System.RecommendDecision with no table)
//	learn.observe learn.step       online learning (ObserveTransition, LearnOnline)
//	compiled.rebuild               the cache's rebuild after a learn step invalidated it

// walInterval is the wal package's default group-commit window, the
// cadence -wal-sync interval fsyncs at.
const walInterval = 100 * time.Millisecond

// tracedOp is one step of the replayed sequence: an event, or one
// recommend round trip of the workload's batch size.
type tracedOp struct {
	Event int // index into the stream; -1 for a recommend round trip
}

// tracedSequence interleaves the first events of the stream with
// recommend round trips in the ratio the timed run saw, at most maxRounds
// between two events, so the in-process run stays a few seconds long.
func tracedSequence(events int, roundsPerEvent float64, maxRounds int) []tracedOp {
	rounds := int(roundsPerEvent + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	if rounds > maxRounds {
		rounds = maxRounds
	}
	ops := make([]tracedOp, 0, events*(rounds+1))
	for i := 0; i < events; i++ {
		ops = append(ops, tracedOp{Event: i})
		for r := 0; r < rounds; r++ {
			ops = append(ops, tracedOp{Event: -1})
		}
	}
	return ops
}

// inproc is the daemon's serving state rebuilt in process from the same
// replay.Config its flags map to.
type inproc struct {
	w      workload
	a      *replay.Assets
	mu     sync.Mutex // the daemon's state lock; the compiled cache rebuilds under it
	cache  *compiled.Cache
	log    *wal.Log
	minute int

	state     env.State
	scratch   env.State
	events    int
	steps     int
	recs      int
	lastSync  time.Time
	recBytes  []int
	failures  int
	out       []byte
	actionIDs []int16
	stateIDs  []uint8

	evFrames [][]byte // each event's request as the daemon receives it
	recFrame []byte
}

func newInproc(w workload, s *stream, walDir string) (*inproc, error) {
	a, err := replay.Build(replay.Config{Seed: daemonSeed, UseDNN: w.DNN})
	if err != nil {
		return nil, err
	}
	if err := a.Train(); err != nil {
		return nil, err
	}
	ip := &inproc{w: w, a: a, minute: s.FixedMinute, state: a.Home.InitialState(), lastSync: time.Now()}
	// As in the daemon, the compiled table is advisory: the DQN product
	// is refused and every recommend then runs the agent.
	if err := a.Sys.EnableCompiledPolicy(&ip.mu, compiled.Options{}); err == nil {
		ip.cache = a.Sys.CompiledPolicy()
	}
	if ip.log, err = wal.Open(walDir, wal.Options{Policy: wal.SyncOnRotate}); err != nil {
		return nil, err
	}
	probe := &client{codec: w.Codec, e: a.Home.Env}
	for _, ev := range s.Events {
		f := probe.appendEvent(nil, ev)
		if w.Codec == "binary" {
			f = f[4:] // ParseRequest takes the frame body
		}
		ip.evFrames = append(ip.evFrames, f)
	}
	ip.recFrame = probe.appendOp(nil, wire.OpRecommend, "recommend")
	if w.Codec == "binary" {
		ip.recFrame = ip.recFrame[4:]
	}
	return ip, nil
}

func (ip *inproc) Close() error { return ip.log.Close() }

// decode runs the codec's request decode under sp.
func (ip *inproc) decode(root *trace.Span, frame []byte) (wire.Request, jsonRequest) {
	if ip.w.Codec == "binary" {
		sp := root.Child("wire.parse")
		req, err := wire.ParseRequest(frame)
		sp.End()
		if err != nil {
			ip.failures++
		}
		return req, jsonRequest{}
	}
	var req jsonRequest
	sp := root.Child("json.decode")
	err := json.Unmarshal(frame, &req)
	sp.End()
	if err != nil {
		ip.failures++
	}
	return wire.Request{}, req
}

// encode runs the codec's response encode under sp.
func (ip *inproc) encode(root *trace.Span, bin *wire.Response, js *jsonResponse) {
	if ip.w.Codec == "binary" {
		sp := root.Child("wire.encode")
		ip.out = wire.AppendResponse(ip.out[:0], bin)
		sp.End()
		return
	}
	sp := root.Child("json.encode")
	b, err := json.Marshal(js)
	sp.End()
	if err != nil {
		ip.failures++
	}
	ip.out = append(ip.out[:0], b...)
}

// journal encodes one record and appends it, syncing at the workload's
// cadence.
func (ip *inproc) journal(root *trace.Span, rec replay.Record) {
	sp := root.Child("journal.encode")
	b, err := rec.Encode()
	sp.End()
	if err != nil {
		ip.failures++
		return
	}
	ip.recBytes = append(ip.recBytes, len(b))
	sp = root.Child("wal.append")
	err = ip.log.Append(b)
	sp.End()
	if err != nil {
		ip.failures++
		return
	}
	if ip.w.WALSync == "record" || time.Since(ip.lastSync) >= walInterval {
		sp = root.Child("wal.sync")
		err = ip.log.Sync()
		sp.End()
		ip.lastSync = time.Now()
		if err != nil {
			ip.failures++
		}
	}
}

func (ip *inproc) stateNames() []string {
	e := ip.a.Home.Env
	out := make([]string, len(ip.state))
	for i, st := range ip.state {
		out[i] = e.Device(i).Name() + "=" + e.Device(i).StateName(st)
	}
	return out
}

// event mirrors the daemon's event op: decode, audit, transition, journal
// evt and txn, observe, every 4th transition a learn step, encode.
func (ip *inproc) event(tr *trace.Tracer, s *stream, i int) {
	e := ip.a.Home.Env
	sys := ip.a.Sys
	root := tr.Start("op.event")
	breq, jreq := ip.decode(root, ip.evFrames[i])
	ip.mu.Lock()
	di, act := int(breq.Device), device.ActionID(breq.Action)
	if ip.w.Codec == "json" {
		// The JSON codec names device and action; the daemon resolves them.
		var ok bool
		if di, ok = e.DeviceIndex(jreq.Device); ok {
			act, ok = e.Device(di).ActionID(jreq.Action)
		}
		if !ok {
			ip.failures++
			ip.mu.Unlock()
			root.End()
			return
		}
	}
	a := env.NoOp(e.K())
	a[di] = act
	next, err := e.Transition(ip.state, a)
	if err != nil {
		ip.failures++
		ip.mu.Unlock()
		root.End()
		return
	}
	sp := root.Child("audit")
	safe := sys.SafeTable().SafeTransition(e.StateKey(ip.state), e.StateKey(next), a)
	sp.End()
	prev := ip.state
	ip.state = next
	ip.events++
	if !equalState(ip.state, s.Events[i].Want) {
		ip.failures++
	}
	ip.journal(root, replay.Record{K: replay.KindEvent, N: ip.events, M: ip.minute, D: di, A: act, U: !safe})
	ip.journal(root, replay.Record{K: replay.KindTransition, N: ip.steps + 1, M: ip.minute, D: di, A: act, S: prev})
	ip.steps++
	sp = root.Child("learn.observe")
	_, _, err = sys.ObserveTransition(prev, a, ip.minute)
	sp.End()
	if err != nil {
		ip.failures++
	}
	learned := false
	if ip.steps%4 == 0 {
		sp = root.Child("learn.step")
		learned, err = sys.LearnOnline(rl.StepRNG(daemonSeed, ip.steps))
		sp.End()
		if err != nil {
			ip.failures++
		}
	}
	bin := wire.Response{Flags: wire.FlagOK, Minute: ip.minute}
	var js jsonResponse
	if ip.w.Codec == "binary" {
		if !safe {
			bin.Flags |= wire.FlagUnsafe
		}
		ip.stateIDs = ip.stateIDs[:0]
		for _, st := range ip.state {
			ip.stateIDs = append(ip.stateIDs, uint8(st))
		}
		bin.State = ip.stateIDs
	} else {
		js = jsonResponse{OK: true, State: ip.stateNames(), Unsafe: !safe, Minute: ip.minute}
	}
	ip.encode(root, &bin, &js)
	ip.mu.Unlock()
	root.End()
	if learned && ip.cache != nil {
		// The learn step invalidated the table and the cache started its
		// own rebuild, which waited for the state lock released above.
		// Waiting for it here keeps the rebuild out of the next op's time.
		rb := tr.Start("op.rebuild")
		sp := rb.Child("compiled.rebuild")
		ip.cache.Wait()
		sp.End()
		rb.End()
	}
}

// recommend mirrors one recommend round trip: the batch's requests decode
// one by one, one evaluation serves them all (the daemon's batch memo),
// the served action is cross-checked against P_safe, and every request
// journals its own rec record and encodes its own response.
func (ip *inproc) recommend(tr *trace.Tracer) {
	e := ip.a.Home.Env
	sys := ip.a.Sys
	root := tr.Start("op.recommend")
	for i := 0; i < ip.w.Batch; i++ {
		ip.decode(root, ip.recFrame)
	}
	ip.mu.Lock()
	var action env.Action
	var value float64
	var p *compiled.Policy
	if ip.cache != nil {
		p = ip.cache.Policy()
	}
	served := false
	if p != nil {
		sp := root.Child("compiled.lookup")
		d, ok := p.Lookup(ip.state, ip.minute)
		sp.End()
		action, value, served = d.Action, d.Value, ok
	}
	if !served {
		sp := root.Child("eval.agent")
		d, err := sys.RecommendDecision(ip.state, ip.minute)
		sp.End()
		if err != nil {
			ip.failures++
			ip.mu.Unlock()
			root.End()
			return
		}
		action, value = d.Action, d.Value
	}
	if ip.scratch == nil {
		ip.scratch = make(env.State, e.K())
	}
	if err := e.TransitionInto(ip.scratch, ip.state, action); err == nil {
		sp := root.Child("audit")
		safe := sys.SafeTable().SafeTransition(e.StateKey(ip.state), e.StateKey(ip.scratch), action)
		sp.End()
		if !safe {
			ip.failures++ // a served action P_safe denies breaks the safety contract
		}
	}
	for i := 0; i < ip.w.Batch; i++ {
		ip.recs++
		ip.journal(root, replay.Record{K: replay.KindRecommend, N: ip.recs, M: ip.minute})
		bin := wire.Response{Flags: wire.FlagOK, Minute: ip.minute, Q: value}
		var js jsonResponse
		if ip.w.Codec == "binary" {
			ip.actionIDs = ip.actionIDs[:0]
			for _, a := range action {
				ip.actionIDs = append(ip.actionIDs, int16(a))
			}
			bin.Action = ip.actionIDs
		} else {
			js = jsonResponse{OK: true, Action: e.FormatAction(action), Minute: ip.minute, Q: value}
		}
		ip.encode(root, &bin, &js)
	}
	ip.mu.Unlock()
	root.End()
}

// tracedRun is the outcome of the in-process runs of one sequence.
type tracedRun struct {
	Ops      int
	Traced   time.Duration
	Untraced time.Duration
	// Self holds each span name's self times, one per call.
	Self     map[string][]int64
	RecBytes []int
	Failures int
	Traces   []*trace.TraceData
}

// replaySequence runs ops against fresh assets, tracing every op when
// traced is set, and returns the wall time and the tracer.
func replaySequence(w workload, s *stream, ops []tracedOp, traced bool, walDir string) (time.Duration, *trace.Tracer, *inproc, error) {
	ip, err := newInproc(w, s, walDir)
	if err != nil {
		return 0, nil, nil, err
	}
	tr := trace.New(len(ops) + len(ops)/4 + 1)
	if traced {
		tr.SetSampleEvery(1)
	}
	t0 := time.Now()
	for _, op := range ops {
		if op.Event >= 0 {
			ip.event(tr, s, op.Event)
		} else {
			ip.recommend(tr)
		}
	}
	elapsed := time.Since(t0)
	if ip.cache != nil {
		ip.cache.Wait()
	}
	return elapsed, tr, ip, ip.Close()
}

// runTraced replays ops untraced and then traced, each on freshly built
// assets and a fresh WAL under work, and collects the traced run's span
// self times.
func runTraced(w workload, s *stream, ops []tracedOp, work string) (*tracedRun, error) {
	res := &tracedRun{Ops: len(ops), Self: map[string][]int64{}}
	for _, traced := range []bool{false, true} {
		dir, err := os.MkdirTemp(work, "traced-wal-")
		if err != nil {
			return nil, err
		}
		elapsed, tr, ip, err := replaySequence(w, s, ops, traced, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("in-process run: %w", err)
		}
		res.Failures += ip.failures
		if !traced {
			res.Untraced = elapsed
			continue
		}
		res.Traced = elapsed
		res.RecBytes = ip.recBytes
		res.Traces = tr.Ring().Recent(tr.Ring().Len())
	}
	for _, td := range res.Traces {
		for i, self := range selfTimes(td) {
			name := td.Spans[i].Name
			res.Self[name] = append(res.Self[name], self)
		}
	}
	return res, nil
}
