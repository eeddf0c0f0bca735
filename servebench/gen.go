package main

import (
	"fmt"
	"math/rand"
	"time"

	"jarvis/internal/dataset"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/smarthome"
)

// event is one device event the hub sends, with the home state the daemon
// must report once it has applied it.
type event struct {
	Dev  int
	Act  device.ActionID
	Want env.State
}

// stream is a seeded replay of simulated resident days (the same ADL
// generator the daemon's learning phase uses) flattened into single-device
// events. Only the hub mutates the daemon's state, so each event is valid
// for the device FSM by construction and the expected state after it is
// known in advance.
type stream struct {
	Home   *smarthome.FullHome
	Events []event
	// FixedMinute pins the daemon's minute-of-day, so runs started at
	// different wall-clock times serve the same inputs.
	FixedMinute int
}

// mix64 is the splitmix64 finalizer, used to derive per-seed inputs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fixedMinute derives the pinned minute-of-day from the workload seed; 0
// is the daemon's "use the wall clock" value, so it is never chosen.
func fixedMinute(seed int64) int {
	return 1 + int(mix64(uint64(seed))%uint64(smarthome.InstancesPerDay-1))
}

// newStream simulates as many consecutive days from the home's initial
// state as it takes to produce at least n events.
func newStream(seed int64, n int) (*stream, error) {
	home := smarthome.NewFullHome()
	e := home.Env
	rng := rand.New(rand.NewSource(seed))
	gen := dataset.NewGenerator(home, dataset.HomeAConfig())
	date := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(mix64(uint64(seed)+1)%365))
	st := home.InitialState()
	s := &stream{Home: home, FixedMinute: fixedMinute(seed)}
	for len(s.Events) < n {
		day, next, err := gen.Day(date, st, rng)
		if err != nil {
			return nil, err
		}
		for _, act := range day.Episode.Actions {
			for dev, a := range act {
				if a == device.NoAction {
					continue
				}
				to, ok := e.Device(dev).Next(st[dev], a)
				if !ok {
					return nil, fmt.Errorf("day %s: %s cannot %s from %s", date.Format("2006-01-02"),
						e.Device(dev).Name(), e.Device(dev).ActionName(a), e.Device(dev).StateName(st[dev]))
				}
				st = st.Clone()
				st[dev] = to
				s.Events = append(s.Events, event{Dev: dev, Act: a, Want: st})
			}
		}
		if !equalState(st, next) {
			return nil, fmt.Errorf("day %s: replayed events end in %s, the simulator in %s",
				date.Format("2006-01-02"), e.FormatState(st), e.FormatState(next))
		}
		date = date.AddDate(0, 0, 1)
	}
	return s, nil
}

func equalState(a, b env.State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
