package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range specs {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, nameRE)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", s.Name, s.Unit, unitRE)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %s listed twice", s.Name)
		}
		seen[s.Name] = true
		// --workload all prefixes every name with its workload.
		for _, w := range workloads {
			if n := w.Name + "." + s.Name; !nameRE.MatchString(n) {
				t.Errorf("prefixed name %q does not match %s", n, nameRE)
			}
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %s", w.Name, nameRE)
		}
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this command emits, with the same units and directions.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var steady []string
	for _, w := range workloads {
		if w.Unsteady == "" {
			steady = append(steady, w.Name)
		}
	}
	if len(bj.Workloads) != len(steady) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d steady ones", len(bj.Workloads), len(steady))
	}
	for i := range bj.Workloads {
		if i < len(steady) && bj.Workloads[i].Name != steady[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, bj.Workloads[i].Name, steady[i])
		}
	}
	var e2e, layer []spec
	for _, s := range specs {
		switch {
		case s.Layer:
			layer = append(layer, s)
		case s.Ungated == "":
			e2e = append(e2e, s)
		}
	}
	check := func(kind string, got []metric, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command emits %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, command %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, w.Name, w.Unit, w.Better)
			}
			if kind == "end_to_end" && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2e)
	check("per_layer", bj.PerLayer, layer)
}
