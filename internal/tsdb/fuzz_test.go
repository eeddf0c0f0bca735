package tsdb

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzDecodeSample throws arbitrary payloads at the sample decoder, the
// only store code that reads bytes from disk (after the log's checksum).
// Two payloads go through one decoder, so the dictionary carried between
// records is exercised too. The decoder must never panic, and a point it
// accepts must survive a round trip: encoded as a full record and decoded
// by a fresh decoder, it is the same point.
func FuzzDecodeSample(f *testing.F) {
	p1 := mkPoint(1000, map[string]int64{"a": 5, `req{op="x"}`: 2}, map[string]float64{"g": 1.5})
	p1.Histograms["lat"] = histStats(time.Millisecond, 2*time.Millisecond)
	p2 := mkPoint(2000, map[string]int64{"a": 9, "new": 1}, map[string]float64{"g": -3.25})
	enc := newEncoder()
	full := encodePoint(nil, p1, enc, true)
	enc.observe(p1)
	delta := encodePoint(nil, p2, enc, false)
	f.Add(full, delta)
	f.Add(delta, full)
	f.Add([]byte{}, []byte{kindFull})
	f.Add([]byte{kindDelta, 0x01}, []byte{kindFull, 0, 1, 0, typeHist, 1, 'h', 2, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2})

	f.Fuzz(func(t *testing.T, first, second []byte) {
		dec := newDecoder()
		dec.decode(first)
		p, err := dec.decode(second)
		if err != nil || sharesName(p) {
			// A name declared as two kinds is not a registry snapshot; the
			// encoder gives one name one id.
			return
		}
		got, err := newDecoder().decode(encodePoint(nil, p, newEncoder(), true))
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", p, err)
		}
		if got.TsNs != p.TsNs || !reflect.DeepEqual(got.Counters, p.Counters) || !reflect.DeepEqual(got.Histograms, p.Histograms) {
			t.Fatalf("round trip: got %+v, want %+v", got, p)
		}
		for name, v := range p.Gauges {
			if math.Float64bits(got.Gauges[name]) != math.Float64bits(v) {
				t.Fatalf("gauge %q: got %v, want %v", name, got.Gauges[name], v)
			}
		}
	})
}

func sharesName(p Point) bool {
	for name := range p.Counters {
		if _, ok := p.Gauges[name]; ok {
			return true
		}
		if _, ok := p.Histograms[name]; ok {
			return true
		}
	}
	for name := range p.Gauges {
		if _, ok := p.Histograms[name]; ok {
			return true
		}
	}
	return false
}
