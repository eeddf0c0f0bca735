package main

import (
	"testing"

	"jarvis/internal/smarthome"
)

// Every generated event must be a valid FSM step from the state the
// previous events left, and its expected state must be that step's result.
func TestStreamIsFSMValidAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		s, err := newStream(seed, 2500) // spans several chained days
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.Events) < 2500 {
			t.Fatalf("seed %d: %d events, want at least 2500", seed, len(s.Events))
		}
		e := s.Home.Env
		st := s.Home.InitialState()
		for i, ev := range s.Events {
			to, ok := e.Device(ev.Dev).Next(st[ev.Dev], ev.Act)
			if !ok {
				t.Fatalf("seed %d event %d: %s cannot %s from %s", seed, i,
					e.Device(ev.Dev).Name(), e.Device(ev.Dev).ActionName(ev.Act), e.Device(ev.Dev).StateName(st[ev.Dev]))
			}
			st = st.Clone()
			st[ev.Dev] = to
			if !equalState(st, ev.Want) {
				t.Fatalf("seed %d event %d: expected state %s, stream says %s", seed, i, e.FormatState(st), e.FormatState(ev.Want))
			}
		}
		if m := s.FixedMinute; m < 1 || m >= smarthome.InstancesPerDay {
			t.Errorf("seed %d: fixed minute %d outside [1, %d)", seed, m, smarthome.InstancesPerDay)
		}
	}
}

func TestStreamIsSeeded(t *testing.T) {
	a, err := newStream(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newStream(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newStream(8, 500)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y *stream) bool {
		if x.FixedMinute != y.FixedMinute || len(x.Events) != len(y.Events) {
			return false
		}
		for i := range x.Events {
			if x.Events[i].Dev != y.Events[i].Dev || x.Events[i].Act != y.Events[i].Act {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different streams")
	}
	if same(a, c) {
		t.Error("different seeds gave the same stream")
	}
	// The mix the workloads are described by: mostly temperature traffic.
	temp := 0
	for _, ev := range a.Events {
		if ev.Dev == a.Home.TempSensor || ev.Dev == a.Home.Thermostat {
			temp++
		}
	}
	if frac := float64(temp) / float64(len(a.Events)); frac < 0.8 {
		t.Errorf("temp-sensor/thermostat share %.2f, want most of the stream", frac)
	}
}
