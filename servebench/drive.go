package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"jarvis/internal/env"
	"jarvis/internal/wire"
)

// ioTimeout bounds every read and write on a benchmark connection, so a
// stalled daemon fails the run instead of hanging it.
const ioTimeout = 30 * time.Second

// jsonRequest and jsonResponse mirror jarvisd's JSON-lines protocol; only
// the fields the benchmark uses are declared.
type jsonRequest struct {
	Op     string `json:"op"`
	Device string `json:"device,omitempty"`
	Action string `json:"action,omitempty"`
}

type jsonResponse struct {
	OK           bool     `json:"ok"`
	Error        string   `json:"error,omitempty"`
	State        []string `json:"state,omitempty"`
	Action       string   `json:"action,omitempty"`
	Unsafe       bool     `json:"unsafe,omitempty"`
	Violations   int      `json:"violations,omitempty"`
	Minute       int      `json:"minute,omitempty"`
	Degraded     int      `json:"degraded,omitempty"`
	Q            float64  `json:"q,omitempty"`
	Busy         bool     `json:"busy,omitempty"`
	RetryAfterMs int      `json:"retryAfterMs,omitempty"`
	Events       int      `json:"events,omitempty"`
	Recommends   int      `json:"recommends,omitempty"`
}

// client is one connection to the daemon in either codec. Requests are
// appended to a caller-owned buffer and written in one call, so a writer
// and a reader goroutine may share a client: the writer touches only
// conn.Write, the reader only the decode side.
type client struct {
	codec string
	conn  net.Conn
	e     *env.Environment

	r    *wire.Reader
	resp wire.Response

	dec *json.Decoder
	jr  jsonResponse
}

func dial(addr, codec string, e *env.Environment) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	c := &client{codec: codec, conn: conn, e: e}
	switch codec {
	case "binary":
		c.r = wire.NewReader(bufio.NewReaderSize(conn, 64<<10))
		if err := c.write(wire.AppendHandshake(nil)); err != nil {
			conn.Close()
			return nil, err
		}
		if err := conn.SetReadDeadline(time.Now().Add(ioTimeout)); err != nil {
			conn.Close()
			return nil, err
		}
		ack, err := c.r.ReadFrame()
		if err != nil || !wire.IsAck(ack) {
			conn.Close()
			return nil, fmt.Errorf("binary handshake with %s failed (%v)", addr, err)
		}
	case "json":
		c.dec = json.NewDecoder(bufio.NewReaderSize(conn, 64<<10))
	default:
		conn.Close()
		return nil, fmt.Errorf("unknown codec %q", codec)
	}
	return c, nil
}

func (c *client) Close() error { return c.conn.Close() }

func (c *client) write(b []byte) error {
	if err := c.conn.SetWriteDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	_, err := c.conn.Write(b)
	return err
}

func appendJSON(dst []byte, req jsonRequest) []byte {
	b, _ := json.Marshal(req) // three strings always marshal
	return append(append(dst, b...), '\n')
}

func (c *client) appendEvent(dst []byte, ev event) []byte {
	if c.codec == "binary" {
		return wire.AppendRequest(dst, wire.Request{Op: wire.OpEvent, Device: uint16(ev.Dev), Action: int16(ev.Act)})
	}
	d := c.e.Device(ev.Dev)
	return appendJSON(dst, jsonRequest{Op: "event", Device: d.Name(), Action: d.ActionName(ev.Act)})
}

func (c *client) appendOp(dst []byte, binOp uint8, jsonOp string) []byte {
	if c.codec == "binary" {
		return wire.AppendRequest(dst, wire.Request{Op: binOp})
	}
	return appendJSON(dst, jsonRequest{Op: jsonOp})
}

// read decodes the next response; ok, busy, stateIs and learnCounts then
// describe it until the next read.
func (c *client) read() error {
	if err := c.conn.SetReadDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	if c.codec == "binary" {
		payload, err := c.r.ReadFrame()
		if err != nil {
			return err
		}
		return c.resp.Decode(payload)
	}
	c.jr = jsonResponse{}
	return c.dec.Decode(&c.jr)
}

func (c *client) ok() bool {
	if c.codec == "binary" {
		return c.resp.OK()
	}
	return c.jr.OK
}

func (c *client) busy() bool {
	if c.codec == "binary" {
		return c.resp.Busy()
	}
	return c.jr.Busy
}

func (c *client) unsafe() bool {
	if c.codec == "binary" {
		return c.resp.Unsafe()
	}
	return c.jr.Unsafe
}

// stateIs reports whether the response's state equals want.
func (c *client) stateIs(want env.State) bool {
	if c.codec == "binary" {
		if len(c.resp.State) != len(want) {
			return false
		}
		for i, s := range want {
			if int(c.resp.State[i]) != int(s) {
				return false
			}
		}
		return true
	}
	if len(c.jr.State) != len(want) {
		return false
	}
	for i, s := range want {
		d := c.e.Device(i)
		if c.jr.State[i] != d.Name()+"="+d.StateName(s) {
			return false
		}
	}
	return true
}

func (c *client) learnCounts() (events, recs int) {
	if c.codec == "binary" {
		return c.resp.Events, c.resp.Recommends
	}
	return c.jr.Events, c.jr.Recommends
}

// tally counts one connection's responses for the correctness checks.
type tally struct {
	Sent     int // requests written
	OK       int
	Busy     int // admission-control sheds
	Errors   int // other non-OK responses
	Mismatch int // event responses whose state was not the expected one
	Unsafe   int // events P_safe flagged (applied, not a failure)
}

func (t tally) failed() int { return t.Busy + t.Errors + t.Mismatch }

// hubRun is the open-loop event stream's outcome. Times are nanoseconds
// from the run's base instant.
type hubRun struct {
	tally
	Sched    []int64 // when each event was due
	Lateness []int64 // how late the writer sent it
	Acked    []int64 // when its response arrived; -1 = never
	Err      error
	// The daemon's learnstate counters, asked for once the stream ends.
	DaemonEvents, DaemonRecs int
	LearnErr                 error
}

// runHub sends evs at rate per second from base, open loop: the writer
// keeps the schedule whatever the daemon does, and a separate reader takes
// the in-order responses, checking each against the expected state.
func runHub(c *client, evs []event, rate int, base time.Time) *hubRun {
	n := len(evs)
	h := &hubRun{Sched: make([]int64, n), Lateness: make([]int64, n), Acked: make([]int64, n)}
	for i := range evs {
		h.Sched[i] = int64(i) * int64(time.Second) / int64(rate)
		h.Acked[i] = -1
	}
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := c.read(); err != nil {
				readErr = fmt.Errorf("hub: response %d/%d: %w", i+1, n, err)
				return
			}
			h.Acked[i] = time.Since(base).Nanoseconds()
			switch {
			case c.busy():
				h.Busy++
			case !c.ok():
				h.Errors++
			case !c.stateIs(evs[i].Want):
				h.Mismatch++
			default:
				h.OK++
				if c.unsafe() {
					h.Unsafe++
				}
			}
		}
	}()
	var buf []byte
	var writeErr error
	for i := range evs {
		due := base.Add(time.Duration(h.Sched[i]))
		time.Sleep(time.Until(due))
		h.Lateness[i] = time.Since(due).Nanoseconds()
		buf = c.appendEvent(buf[:0], evs[i])
		if err := c.write(buf); err != nil {
			writeErr = fmt.Errorf("hub: send %d/%d: %w", i+1, n, err)
			// Unblock the reader: no more responses are coming.
			c.Close()
			break
		}
		h.Sent++
	}
	wg.Wait()
	switch {
	case writeErr != nil:
		h.Err = writeErr
	case readErr != nil:
		h.Err = readErr
	}
	return h
}

// recRun is the closed-loop recommend connection's outcome: one entry per
// round trip, nanoseconds from the run's base instant.
type recRun struct {
	tally
	Start, End []int64
	Err        error
}

// runRecs sends round trips of batch recommends, each only after the
// previous one completed, until stop.
func runRecs(c *client, batch int, base, stop time.Time) *recRun {
	r := &recRun{}
	var buf []byte
	for i := 0; i < batch; i++ {
		buf = c.appendOp(buf, wire.OpRecommend, "recommend")
	}
	for time.Now().Before(stop) {
		t0 := time.Since(base).Nanoseconds()
		if err := c.write(buf); err != nil {
			r.Err = fmt.Errorf("recommend: send: %w", err)
			return r
		}
		r.Sent += batch
		for i := 0; i < batch; i++ {
			if err := c.read(); err != nil {
				r.Err = fmt.Errorf("recommend: receive: %w", err)
				return r
			}
			switch {
			case c.busy():
				r.Busy++
			case !c.ok():
				r.Errors++
			default:
				r.OK++
			}
		}
		r.Start = append(r.Start, t0)
		r.End = append(r.End, time.Since(base).Nanoseconds())
	}
	return r
}

// learnState asks the daemon for its ingest counters.
func learnState(c *client) (events, recs int, err error) {
	if err := c.write(c.appendOp(nil, wire.OpLearnState, "learnstate")); err != nil {
		return 0, 0, err
	}
	if err := c.read(); err != nil {
		return 0, 0, err
	}
	if !c.ok() {
		return 0, 0, fmt.Errorf("learnstate refused")
	}
	events, recs = c.learnCounts()
	return events, recs, nil
}
