package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"jarvis/internal/tsdb"
)

// The daemon's metric history (internal/tsdb) hangs off the health
// ticker: every TSInterval the loop appends one registry snapshot to the
// store, and the SLO tracker scores its window from the same store. With
// -tsdb the store is on disk and /debug/tsdb serves range queries over
// it, so an operator recomputing a burn rate with
// ?series=...&fn=delta gets the number /debug/slo published — both sides
// resolve the identical (EdgeBefore, Latest) pair. Without -tsdb the
// store lives in memory and holds just the SLO window.

// openHistory opens the metric store: on disk when configured, else in
// memory. A store that cannot open falls back to memory rather than
// refusing to start — metric history is derived data.
func (s *server) openHistory() *tsdb.DB {
	if s.cfg.TSDBDir != "" {
		db, err := tsdb.Open(s.cfg.TSDBDir, tsdb.Options{})
		if err == nil {
			if rs := db.Recovery(); rs.TruncatedBytes > 0 {
				s.cfg.Logf("jarvisd: tsdb recovery truncated %d torn bytes", rs.TruncatedBytes)
			}
			return db
		}
		s.cfg.Logf("jarvisd: tsdb unavailable (%v); metric history stays in memory", err)
	}
	db, _ := tsdb.Open("", tsdb.Options{MemoryPoints: windowPoints(s.cfg.SLOWindow, s.cfg.TSInterval)})
	return db
}

// windowPoints is the in-memory store's cap: the points one SLO window
// spans at the append cadence, plus the edge at or before the window
// start and the newest point.
func windowPoints(window, interval time.Duration) int {
	return int((window+interval-1)/interval) + 2
}

// history returns the on-disk metric store, nil without -tsdb.
func (s *server) history() *tsdb.DB {
	if s.ts == nil || s.ts.Dir() == "" {
		return nil
	}
	return s.ts
}

// tsdbIndex is the parameterless /debug/tsdb body: store footprint plus
// every series the newest point carries.
type tsdbIndex struct {
	IntervalMs int64      `json:"intervalMs"`
	Stats      tsdb.Stats `json:"stats"`
	Series     []string   `json:"series"`
}

// tsdbQuery is the /debug/tsdb?series=... body. Value carries the scalar
// result (rate per second, delta, or quantile nanoseconds); Samples the
// raw per-point values for fn=raw.
type tsdbQuery struct {
	Series  string        `json:"series"`
	Fn      string        `json:"fn"`
	FromNs  int64         `json:"fromNs"`
	ToNs    int64         `json:"toNs"`
	OK      bool          `json:"ok"`
	Value   float64       `json:"value,omitempty"`
	Samples []tsdb.Sample `json:"samples,omitempty"`
}

// handleTSDB serves the metric history. Without ?series it returns the
// index; with it, one range query:
//
//	/debug/tsdb?series=NAME&fn=rate|delta|p50|p95|p99|raw&window=5m
//	/debug/tsdb?series=NAME&fn=delta&from=<unixNs>&to=<unixNs>
//
// from/to default to [now−window, now] (window default 5m). Labeled
// series are addressed by their flat snapshot name, URL-escaped, e.g.
// series=jarvisd.requests%7Bop%3D%22recommend%22%7D.
func (s *server) handleTSDB(w http.ResponseWriter, r *http.Request) {
	if s.history() == nil {
		s.writeError(w, r, http.StatusNotFound, "tsdb disabled (start with -tsdb DIR)")
		return
	}
	q := r.URL.Query()
	series := q.Get("series")
	if series == "" {
		s.writeJSON(w, r, http.StatusOK, tsdbIndex{
			IntervalMs: s.cfg.TSInterval.Milliseconds(),
			Stats:      s.ts.Stats(),
			Series:     s.ts.SeriesNames(),
		})
		return
	}
	bad := func(format string, args ...any) {
		s.writeError(w, r, http.StatusBadRequest, fmt.Sprintf(format, args...))
	}

	window := 5 * time.Minute
	if ws := q.Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			bad("bad window %q", ws)
			return
		}
		window = d
	}
	now := time.Now().UnixNano()
	toNs, err := nsParam(q.Get("to"), now)
	if err != nil {
		bad("bad to %q", q.Get("to"))
		return
	}
	fromNs, err := nsParam(q.Get("from"), toNs-window.Nanoseconds())
	if err != nil {
		bad("bad from %q", q.Get("from"))
		return
	}

	fn := q.Get("fn")
	if fn == "" {
		fn = "raw"
	}
	resp := tsdbQuery{Series: series, Fn: fn, FromNs: fromNs, ToNs: toNs}
	switch fn {
	case "rate":
		resp.Value, resp.OK = s.ts.Rate(series, fromNs, toNs)
	case "delta":
		resp.Value, resp.OK = s.ts.Delta(series, fromNs, toNs)
	case "p50", "p95", "p99":
		qv := map[string]float64{"p50": 0.50, "p95": 0.95, "p99": 0.99}[fn]
		var ns int64
		ns, resp.OK = s.ts.QuantileOverTime(series, qv, fromNs, toNs)
		resp.Value = float64(ns)
	case "raw":
		resp.Samples = s.ts.Series(series, fromNs, toNs)
		resp.OK = len(resp.Samples) > 0
	default:
		bad("unknown fn %q (want rate, delta, p50, p95, p99, or raw)", fn)
		return
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// nsParam parses a unix-nanosecond query parameter, defaulting when
// absent.
func nsParam(v string, def int64) (int64, error) {
	if v == "" {
		return def, nil
	}
	return strconv.ParseInt(v, 10, 64)
}
