package rl

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/telemetry"
)

// overheadBatch builds a warm DQN and a 32-experience mini-batch, the
// daemon-scale Update the acceptance criterion measures.
func overheadBatch(t *testing.T) (*DQN, []Experience, []float64) {
	t.Helper()
	e := testEnv(t)
	rng := rand.New(rand.NewSource(41))
	d, err := NewDQN(e, 10, DQNConfig{Hidden: []int{64, 64}, LR: 0.001, TargetSync: 64}, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Experience, 32)
	targets := make([]float64, 32)
	for i := range batch {
		batch[i] = Experience{
			S:     env.State{device.StateID(rng.Intn(2)), device.StateID(rng.Intn(2))},
			T:     rng.Intn(10),
			Minis: []int{1 + rng.Intn(4)},
		}
		targets[i] = rng.NormFloat64()
	}
	for i := 0; i < 8; i++ { // warm scratch, arena, Adam state
		if _, err := d.Update(batch, targets); err != nil {
			t.Fatal(err)
		}
	}
	return d, batch, targets
}

// pairedOverhead times side a against side b in interleaved pairs, each
// side making iters calls on the same object, alternating which side runs
// first and fencing every pair with a GC so neither side inherits the
// other's garbage. It returns the quartiles of the per-pair ratios b/a-1.
// Pairing cancels drift in machine load — a busy stretch slows both halves
// of the pairs it spans — which timing all of one side and then all of the
// other cannot.
func pairedOverhead(pairs, iters int, a, b func(n int)) (q1, median, q3 float64) {
	timed := func(side func(n int)) float64 {
		t0 := time.Now()
		side(iters)
		return float64(time.Since(t0).Nanoseconds())
	}
	ratios := make([]float64, pairs)
	for p := range ratios {
		runtime.GC()
		var ta, tb float64
		if p%2 == 0 {
			ta = timed(a)
			tb = timed(b)
		} else {
			tb = timed(b)
			ta = timed(a)
		}
		ratios[p] = tb/ta - 1
	}
	sort.Float64s(ratios)
	return ratios[pairs/4], ratios[pairs/2], ratios[3*pairs/4]
}

// gateOverhead fails t unless side b costs at most bound more than side a,
// judged on the median of the paired ratios. A median within the bound
// passes and a lower quartile above it fails outright. A median above the
// bound with the lower quartile below it is inconclusive — the spread
// straddles the bound — and only that case is measured again, up to a
// fixed number of attempts.
func gateOverhead(t *testing.T, what string, bound float64, a, b func(n int)) {
	t.Helper()
	const attempts, pairs, iters = 3, 21, 100
	for attempt := 1; ; attempt++ {
		q1, med, q3 := pairedOverhead(pairs, iters, a, b)
		t.Logf("%s overhead, attempt %d: median %+.2f%% (quartiles %+.2f%% .. %+.2f%%) over %d pairs of %d calls",
			what, attempt, med*100, q1*100, q3*100, pairs, iters)
		if med <= bound {
			return
		}
		if q1 > bound || attempt == attempts {
			t.Errorf("%s overhead: median %+.2f%% exceeds %.0f%% (lower quartile %+.2f%%, attempt %d of %d)",
				what, med*100, bound*100, q1*100, attempt, attempts)
			return
		}
	}
}

// TestDQNUpdateInstrumentationOverhead is the acceptance gate for the
// zero-perturbation contract: the instrumented DQN.Update (telemetry
// enabled) must stay within 3% ns/op of the bare path (telemetry disabled,
// where every metric write reduces to one atomic load) and add zero
// allocations.
func TestDQNUpdateInstrumentationOverhead(t *testing.T) {
	d, batch, targets := overheadBatch(t)

	// Allocation contract first: it is deterministic and holds everywhere.
	telemetry.Default.SetEnabled(true)
	defer telemetry.Default.SetEnabled(true)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.Update(batch, targets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented DQN.Update allocates %.1f objects per call, want 0", allocs)
	}

	if raceEnabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}

	// Both sides drive the same DQN; only the telemetry switch differs.
	update := func(enabled bool) func(n int) {
		return func(n int) {
			telemetry.Default.SetEnabled(enabled)
			for i := 0; i < n; i++ {
				if _, err := d.Update(batch, targets); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	gateOverhead(t, "DQN.Update instrumentation", 0.03, update(false), update(true))
}

// TestTrainingMovesTelemetry trains a tiny agent and checks that every rl
// metric the daemon exposes actually moves.
func TestTrainingMovesTelemetry(t *testing.T) {
	before := telemetry.Default.Snapshot()

	e := testEnv(t)
	rs := testReward(t, e, 10)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(sim, NewTableQ(e, 10, 4, 0.2), AgentConfig{
		Episodes:  4,
		BatchSize: 4,
		Rng:       rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(); err != nil {
		t.Fatal(err)
	}
	a.Greedy(env.State{1, 1}, 0)

	after := telemetry.Default.Snapshot()
	for _, name := range []string{"rl.train.episodes", "rl.train.steps", "rl.recommend.greedy"} {
		if after.Counters[name] <= before.Counters[name] {
			t.Errorf("counter %s did not move: %d -> %d", name, before.Counters[name], after.Counters[name])
		}
	}
	lat := `rl.update.latency{backend="table"}`
	if after.Histograms[lat].Count <= before.Histograms[lat].Count {
		t.Errorf("%s recorded no observations during training", lat)
	}
	if eps := after.Gauges["rl.epsilon"]; eps <= 0 || eps > 1 {
		t.Errorf("rl.epsilon gauge = %v, want (0, 1]", eps)
	}
	if after.Gauges["rl.replay.size"] <= 0 {
		t.Error("rl.replay.size gauge never set")
	}
}

// TestGreedyDegradedCountsTelemetry poisons a tabular Q row with NaN and
// checks the degraded fallback is counted and value-reported.
func TestGreedyDegradedCountsTelemetry(t *testing.T) {
	before := telemetry.Default.Snapshot().Counters["rl.recommend.degraded"]

	e := testEnv(t)
	rs := testReward(t, e, 10)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	q := NewTableQ(e, 10, 1, 0.2)
	a, err := NewAgent(sim, q, AgentConfig{Rng: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	s := env.State{1, 1}
	nan := func() float64 { return 0 }()
	nan = nan / nan // NaN without importing math
	if _, err := q.Update([]Experience{{S: s, T: 0, Minis: []int{1}}}, []float64{nan}); err != nil {
		t.Fatal(err)
	}
	act := a.Greedy(s, 0)
	if !act.IsNoOp() {
		t.Errorf("degraded Greedy returned %v, want NoOp", act)
	}
	if a.Degraded() != 1 {
		t.Errorf("Degraded() = %d, want 1", a.Degraded())
	}
	if v := a.LastValue(); v != 0 {
		t.Errorf("LastValue after degraded fallback = %v, want 0", v)
	}
	after := telemetry.Default.Snapshot().Counters["rl.recommend.degraded"]
	if after != before+1 {
		t.Errorf("rl.recommend.degraded: %d -> %d, want +1", before, after)
	}
}
