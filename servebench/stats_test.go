package main

import (
	"math"
	"testing"

	"jarvis/internal/trace"
)

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct {
		p    float64
		want float64
	}{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	var hundred []float64
	for i := 1; i <= 1000; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{19, 50, false},
		{100000, 99.99, true},
		{0, 50, false},
	} {
		if got := qualified(c.n, c.p); got != c.want {
			t.Errorf("qualified(%d, p%v) = %v (beyond %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

// A batch's recommends share its round trip, so the batch percentile must
// equal the plain percentile over the expanded per-recommend list.
func TestBatchPercentileMatchesExpanded(t *testing.T) {
	rtt := []float64{1, 2, 3, 5, 8, 13, 21}
	for _, batch := range []int{1, 3, 16} {
		var expanded []float64
		for _, v := range rtt {
			for i := 0; i < batch; i++ {
				expanded = append(expanded, v)
			}
		}
		for _, p := range []float64{1, 25, 50, 90, 99, 100} {
			if got, want := batchPercentile(rtt, batch, p), percentile(expanded, p); got != want {
				t.Errorf("batch %d p%v = %v, want %v", batch, p, got, want)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	td := &trace.TraceData{Spans: []trace.SpanData{
		{Name: "root", Parent: -1, StartNs: 0, DurNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, DurNs: 30}, // 10..40
		{Name: "a.inner", Parent: 1, StartNs: 20, DurNs: 10},
		{Name: "b", Parent: 0, StartNs: 35, DurNs: 25},   // 35..60, overlaps a
		{Name: "c", Parent: 0, StartNs: 90, DurNs: 30},   // 90..120, runs past root
		{Name: "leaf", Parent: 3, StartNs: 40, DurNs: 0}, // zero-length child
	}}
	// root: 100 - |10..60 ∪ 90..100| = 100 - 60 = 40.
	want := []int64{40, 20, 10, 25, 30, 0}
	got := selfTimes(td)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", td.Spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracedSequenceRatio(t *testing.T) {
	ops := tracedSequence(3, 2.4, 8)
	if len(ops) != 9 {
		t.Fatalf("3 events at 2 rounds each: %d ops, want 9", len(ops))
	}
	if ops[0].Event != 0 || ops[3].Event != 1 || ops[6].Event != 2 || ops[1].Event != -1 {
		t.Errorf("unexpected interleaving %v", ops)
	}
	if n := len(tracedSequence(2, 500, 8)); n != 18 {
		t.Errorf("rounds not capped: %d ops, want 18", n)
	}
	if n := len(tracedSequence(2, 0.1, 8)); n != 4 {
		t.Errorf("at least one round per event: %d ops, want 4", n)
	}
}
