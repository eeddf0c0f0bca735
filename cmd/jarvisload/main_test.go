package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"jarvis/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Microsecond
	}
	cases := []struct {
		p    int
		want time.Duration
	}{
		{50, 50 * time.Microsecond},
		{99, 99 * time.Microsecond},
		{100, 100 * time.Microsecond},
		{1, 1 * time.Microsecond},
	}
	for _, c := range cases {
		if got := percentile(lats, c.p); got != c.want {
			t.Errorf("percentile(%d) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile(lats[:1], 99); got != time.Microsecond {
		t.Errorf("percentile(single, 99) = %v", got)
	}
}

// fakeRecommendDaemon answers recommend over both codecs, like jarvisd.
func fakeRecommendDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				first, err := br.Peek(1)
				if err != nil {
					return
				}
				if first[0] == wire.Magic {
					hello := make([]byte, 2)
					if _, err := br.Read(hello); err != nil {
						return
					}
					if _, err := conn.Write(wire.AppendAck(nil)); err != nil {
						return
					}
					r := wire.NewReader(br)
					var out []byte
					for {
						if _, err := r.ReadFrame(); err != nil {
							return
						}
						out = wire.AppendResponse(out[:0], &wire.Response{Flags: wire.FlagOK, Q: 1})
						if _, err := conn.Write(out); err != nil {
							return
						}
					}
				}
				dec := json.NewDecoder(br)
				enc := json.NewEncoder(conn)
				for {
					var req jsonRequest
					if err := dec.Decode(&req); err != nil {
						return
					}
					if err := enc.Encode(jsonResponse{OK: true, Q: 1}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestBenchAddrBothCodecs runs the measurement loop against a fake daemon
// over each codec and sanity-checks the row.
func TestBenchAddrBothCodecs(t *testing.T) {
	addr := fakeRecommendDaemon(t)
	for _, mode := range []string{"binary", "json"} {
		r, err := benchAddr([]string{addr}, mode, 100, 2, 4, 10, 5*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.Requests != 100 || r.RecsPerSec <= 0 || r.P99Us < r.P50Us {
			t.Errorf("%s row implausible: %+v", mode, r)
		}
	}
}

// TestExternalAddrModeWritesReport drives run() end to end against a
// daemon address and checks the stamped JSON row it prints.
func TestExternalAddrModeWritesReport(t *testing.T) {
	addr := fakeRecommendDaemon(t)
	var out bytes.Buffer
	err := run([]string{"-addr", addr, "-n", "50", "-conns", "2", "-batch", "1", "-warmup", "5"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not one report: %v\n%s", err, out.String())
	}
	if rep.Requests != 50 || rep.Wire != "binary" || rep.GOMAXPROCS < 1 || rep.GoVersion == "" {
		t.Fatalf("report: %+v", rep)
	}
	// The trajectory stamp: generated_at must be a parseable RFC3339
	// instant (revision is empty in test builds, which carry no VCS info).
	if _, err := time.Parse(time.RFC3339, rep.GeneratedAt); err != nil {
		t.Errorf("generated_at %q does not parse: %v", rep.GeneratedAt, err)
	}
}
