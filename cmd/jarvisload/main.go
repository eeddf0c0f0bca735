// Command jarvisload drives a running jarvisd with recommend load. Each
// of -conns persistent-connection clients issues recommend requests
// over the chosen codec until -n have completed; the run then prints its
// row — p50/p99 round-trip latency and recommendations per second,
// stamped with the Go version, GOMAXPROCS, the time and the source
// revision — as one line of JSON on stdout:
//
//	jarvisload -addr 127.0.0.1:7463 -wire binary -n 200000 -conns 4 -batch 16
//	jarvisload -addr primary:7463,standby:7463   # fail over in order
//
// The operator-shaped serving benchmark (WAL on, a stated fsync policy,
// a mix of events and recommends, every answer checked) is servebench;
// jarvisload is the bare load generator for a daemon someone else runs.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jarvis/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jarvisload:", err)
		os.Exit(1)
	}
}

// result is one measured run.
type result struct {
	Wire     string `json:"wire"`
	Requests int    `json:"requests"`
	Conns    int    `json:"conns"`
	// Batch is the pipeline depth: recommendations completed per round
	// trip. Latency percentiles are per round trip, so at Batch > 1 each
	// sample covers a whole scored batch.
	Batch      int     `json:"batch"`
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
	RecsPerSec float64 `json:"recs_per_sec"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

// report is the printed row: the result stamped with what ties it to the
// machine and the source that produced it.
type report struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GeneratedAt string `json:"generated_at"`
	Revision    string `json:"revision,omitempty"`
	result
}

func run(args []string, out io.Writer) error {
	cfg := newFlagSet()
	if err := cfg.fs.Parse(args); err != nil {
		return err
	}
	r, err := benchAddr(splitAddrs(*cfg.addr), *cfg.wire, *cfg.n, *cfg.conns, *cfg.batch, *cfg.warmup, *cfg.timeout)
	if err != nil {
		return err
	}
	data, err := json.Marshal(report{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Revision:    version.Revision(),
		result:      r,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// benchAddr drives addr with conns persistent clients until n recommend
// requests have completed, batch per round trip, collecting per-round-trip
// latencies.
func benchAddr(addrs []string, wireMode string, n, conns, batch, warmup int, timeout time.Duration) (result, error) {
	if conns < 1 {
		conns = 1
	}
	if batch < 1 {
		batch = 1
	}
	clients := make([]client, conns)
	for i := range clients {
		c, err := dialClient(addrs, wireMode, timeout)
		if err != nil {
			for _, p := range clients[:i] {
				p.Close()
			}
			return result{}, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// Warmup primes connection state, the daemon's scratch buffers, and
	// the compiled-table hit path before the timed window opens.
	for i := 0; i < warmup; i++ {
		if err := clients[i%conns].RecommendBatch(batch); err != nil {
			return result{}, fmt.Errorf("warmup: %w", err)
		}
	}

	var (
		remaining = int64(n)
		wg        sync.WaitGroup
		mu        sync.Mutex
		lats      = make([]time.Duration, 0, n)
		firstErr  error
	)
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			local := make([]time.Duration, 0, n/(conns*batch)+1)
			for atomic.AddInt64(&remaining, -int64(batch)) >= 0 {
				t0 := time.Now()
				err := c.RecommendBatch(batch)
				local = append(local, time.Since(t0))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return result{}, firstErr
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	reqs := len(lats) * batch
	return result{
		Wire:       wireMode,
		Requests:   reqs,
		Conns:      conns,
		Batch:      batch,
		P50Us:      float64(percentile(lats, 50)) / 1e3,
		P99Us:      float64(percentile(lats, 99)) / 1e3,
		RecsPerSec: float64(reqs) / elapsed.Seconds(),
		ElapsedMs:  float64(elapsed.Nanoseconds()) / 1e6,
	}, nil
}

// percentile reads the p-th percentile from sorted latencies using the
// nearest-rank method.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
