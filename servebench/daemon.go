package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jarvis/internal/telemetry"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat (100 on every Linux platform Go supports).
const clockTicks = 100

// daemon is one spawned jarvisd.
type daemon struct {
	cmd       *exec.Cmd
	Addr      string
	DebugAddr string
	// Setup is spawn until the "listening on" banner: training, compile,
	// WAL open.
	Setup time.Duration
	// logDone closes when stderr reaches EOF; tail keeps its last lines
	// for error reports.
	logDone chan struct{}
	tail    []string
}

// startDaemon spawns bin and waits for its listen and debug banners.
func startDaemon(bin string, args []string, gomaxprocs int, timeout time.Duration) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn jarvisd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	listen := make(chan time.Time, 1)
	debug := make(chan string, 1)
	go d.readLog(stderr, listen, debug)

	deadline := time.After(timeout)
	select {
	case at := <-listen:
		d.Setup = at.Sub(t0)
	case <-d.logDone:
		_ = d.stop(true)
		return nil, fmt.Errorf("jarvisd exited before listening: %s", d.lastLines())
	case <-deadline:
		_ = d.stop(true)
		return nil, fmt.Errorf("jarvisd did not listen within %s: %s", timeout, d.lastLines())
	}
	select {
	case d.DebugAddr = <-debug:
	case <-d.logDone:
		_ = d.stop(true)
		return nil, fmt.Errorf("jarvisd exited before its debug listener: %s", d.lastLines())
	case <-deadline:
		_ = d.stop(true)
		return nil, fmt.Errorf("jarvisd printed no debug address within %s: %s", timeout, d.lastLines())
	}
	return d, nil
}

// readLog scans the daemon's stderr for the two banners and keeps the
// last lines. The final telemetry line is long, hence the large buffer.
func (d *daemon) readLog(r io.Reader, listen chan<- time.Time, debug chan<- string) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		var a string
		if n, _ := fmt.Sscanf(line, "jarvisd: listening on %s", &a); n == 1 {
			d.Addr = a
			select {
			case listen <- time.Now():
			default:
			}
		}
		if n, _ := fmt.Sscanf(line, "jarvisd: debug endpoints on http://%s", &a); n == 1 {
			select {
			case debug <- a:
			default:
			}
		}
		if len(line) > 300 {
			line = line[:300] + "..."
		}
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
	}
	_, _ = io.Copy(io.Discard, r)
}

// lastLines is the tail of the daemon's log; call only after stop, once
// the log reader has finished.
func (d *daemon) lastLines() string { return strings.Join(d.tail, " | ") }

// stop sends SIGTERM and waits for the daemon and its log reader. It
// reports a non-zero exit (a shutdown that was not clean) as an error.
// A daemon stopped right after its banners may not have installed its
// signal handler yet; with justStarted, dying of the SIGTERM itself is
// therefore not an error.
func (d *daemon) stop(justStarted bool) error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		err = errors.New("jarvisd ignored SIGTERM for 30s; killed")
	}
	<-d.logDone
	var ee *exec.ExitError
	if justStarted && errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
	}
	if err != nil {
		return fmt.Errorf("jarvisd shutdown: %v: %s", err, d.lastLines())
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

var httpClient = &http.Client{Timeout: 10 * time.Second}

// scrape reads one telemetry snapshot from /metrics.
func (d *daemon) scrape() (*telemetry.Snapshot, error) {
	resp, err := httpClient.Get("http://" + d.DebugAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return &snap, nil
}

// cpuTicks reads the daemon's utime+stime from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it start at the
	// last ')'. utime and stime are fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return ut + st, nil
}

// rssMiB reads a memory line (VmRSS, VmHWM) of /proc/<pid>/status.
func rssMiB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed %s %q", field, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// probe is the daemon-side state at one instant of a run.
type probe struct {
	At       time.Time
	Snap     *telemetry.Snapshot
	CPUTicks int64
	WALBytes int64
}

func (d *daemon) probe(walDir string) (probe, error) {
	p := probe{At: time.Now()}
	var err error
	if p.CPUTicks, err = cpuTicks(d.pid()); err != nil {
		return p, err
	}
	if p.WALBytes, err = dirBytes(filepath.Clean(walDir)); err != nil {
		return p, err
	}
	p.Snap, err = d.scrape()
	return p, err
}
