package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"strings"
	"time"

	"jarvis/internal/wire"
)

// flags bundles the flag set so run() can parse test args without
// touching the global FlagSet.
type flags struct {
	fs      *flag.FlagSet
	addr    *string
	wire    *string
	n       *int
	conns   *int
	batch   *int
	warmup  *int
	timeout *time.Duration
}

func newFlagSet() *flags {
	f := &flags{fs: flag.NewFlagSet("jarvisload", flag.ContinueOnError)}
	f.addr = f.fs.String("addr", "127.0.0.1:7463", "daemon address, or a comma-separated primary,standby list that fails over in order")
	f.wire = f.fs.String("wire", "binary", "codec: binary | json")
	f.n = f.fs.Int("n", 20000, "timed recommend requests")
	f.conns = f.fs.Int("conns", 4, "concurrent persistent connections")
	f.batch = f.fs.Int("batch", 16, "binary-codec pipeline depth: recommends scored per round trip (JSON has no batching; it always runs lockstep)")
	f.warmup = f.fs.Int("warmup", 200, "untimed warmup round trips")
	f.timeout = f.fs.Duration("timeout", 10*time.Second, "per-request deadline")
	return f
}

// splitAddrs parses a comma-separated address list, dropping empty
// entries so trailing commas are harmless.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// client issues recommend requests over a persistent connection; the two
// implementations are the codecs under test. RecommendBatch(n) completes
// n recommendations before returning — the binary codec pipelines them
// into one round trip so the daemon can batch-score, while JSON (which
// has no framing for it) runs them lockstep.
type client interface {
	RecommendBatch(n int) error
	Close() error
}

// dialClient connects to the first reachable address. With several
// addresses (primary,standby failover) each is tried in order, twice
// through the list — a kill-the-primary bench window only needs the
// standby to finish promoting by the second pass.
func dialClient(addrs []string, wireMode string, timeout time.Duration) (client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no addresses to dial")
	}
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for _, addr := range addrs {
			c, err := dialOne(addr, wireMode, timeout)
			if err == nil {
				return c, nil
			}
			lastErr = err
		}
	}
	if len(addrs) > 1 {
		return nil, fmt.Errorf("%w (exhausted %s)", lastErr, strings.Join(addrs, ", "))
	}
	return nil, lastErr
}

func dialOne(addr, wireMode string, timeout time.Duration) (client, error) {
	switch wireMode {
	case "binary":
		c, err := wire.Dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		return &binClient{c: c}, nil
	case "json":
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &jsonClient{
			conn:    conn,
			enc:     json.NewEncoder(conn),
			dec:     json.NewDecoder(bufio.NewReader(conn)),
			timeout: timeout,
		}, nil
	}
	return nil, fmt.Errorf("unknown -wire %q (want binary or json)", wireMode)
}

type binClient struct {
	c *wire.Client
}

func (b *binClient) RecommendBatch(n int) error {
	resp, err := b.c.DoBatch(wire.Request{Op: wire.OpRecommend}, n)
	if err != nil {
		return err
	}
	if !resp.OK() {
		return fmt.Errorf("daemon: %s", resp.Err)
	}
	return nil
}

func (b *binClient) Close() error { return b.c.Close() }

type jsonClient struct {
	conn    net.Conn
	enc     *json.Encoder
	dec     *json.Decoder
	timeout time.Duration
}

// jsonRequest and jsonResponse mirror jarvisd's JSON protocol; only the
// fields the bench touches are declared.
type jsonRequest struct {
	Op string `json:"op"`
}

type jsonResponse struct {
	OK    bool    `json:"ok"`
	Error string  `json:"error,omitempty"`
	Q     float64 `json:"q,omitempty"`
}

func (j *jsonClient) RecommendBatch(n int) error {
	if err := j.conn.SetDeadline(time.Now().Add(j.timeout)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := j.enc.Encode(jsonRequest{Op: "recommend"}); err != nil {
			return err
		}
		var resp jsonResponse
		if err := j.dec.Decode(&resp); err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("daemon: %s", resp.Error)
		}
	}
	return nil
}

func (j *jsonClient) Close() error { return j.conn.Close() }
