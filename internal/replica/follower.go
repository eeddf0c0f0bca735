package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"jarvis/internal/wire"
)

// ErrStalled reports that the primary went silent for longer than the
// configured heartbeat timeout (across reconnect attempts): the signal a
// follower configured for automatic failover promotes on.
var ErrStalled = errors.New("replica: primary heartbeat timeout")

// errStopped is the internal clean-shutdown sentinel.
var errStopped = errors.New("replica: stopped")

// FollowerConfig wires a Follower to the standby daemon.
type FollowerConfig struct {
	// Addr is the primary's serving address.
	Addr string
	// Timeout is the silence budget: no frame from the primary for this
	// long (including time spent failing to reconnect) and Run returns
	// ErrStalled. Default 5s.
	Timeout time.Duration
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// Have reports the follower's applied position, sent in the hello.
	Have func() Counters
	// OnSnapshot applies a shipped checkpoint. The data slice is only
	// valid for the duration of the call. An error is fatal to Run.
	OnSnapshot func(gen uint64, data []byte) error
	// OnRecord applies one verbatim WAL record. The slice is only valid
	// for the duration of the call. An error is fatal to Run.
	OnRecord func(rec []byte) error
	// OnHeartbeat observes the primary's journalled position (optional;
	// the follower records it for Primary regardless).
	OnHeartbeat func(at Counters)
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Follower maintains the replication connection from the standby side:
// dial, hello, apply the stream, reconnect with backoff on connection
// loss, and give up with ErrStalled once the primary has been silent past
// the heartbeat timeout. On a stop signal it drains whatever frames are
// already buffered — the shipped tail — before returning, so an explicit
// promotion never discards records the primary already handed over.
type Follower struct {
	cfg FollowerConfig

	mu        sync.Mutex
	primary   Counters
	primaryAt time.Time
	connected bool
}

// NewFollower builds a follower over cfg.
func NewFollower(cfg FollowerConfig) *Follower {
	return &Follower{cfg: cfg.withDefaults()}
}

// Primary reports the primary's last-announced position and when it was
// heard. ok is false before the first heartbeat or snapshot.
func (f *Follower) Primary() (at Counters, heard time.Time, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary, f.primaryAt, !f.primaryAt.IsZero()
}

// Connected reports whether a replication connection is currently up.
func (f *Follower) Connected() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connected
}

// Run follows the primary until stop closes (returns nil), the primary
// goes silent past the timeout (returns ErrStalled), or an apply callback
// fails (returns that error).
func (f *Follower) Run(stop <-chan struct{}) error {
	cfg := f.cfg
	silence := time.Now().Add(cfg.Timeout)
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		conn, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
		if err != nil {
			if time.Now().After(silence) {
				return ErrStalled
			}
			cfg.Logf("replica: dial %s: %v (retrying)", cfg.Addr, err)
			if !sleepOrStop(backoff, stop) {
				return nil
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		err = f.stream(conn, stop, &silence)
		conn.Close()
		f.mu.Lock()
		f.connected = false
		f.mu.Unlock()
		switch {
		case errors.Is(err, errStopped):
			return nil
		case errors.Is(err, ErrStalled):
			return ErrStalled
		case err != nil && isFatalApply(err):
			return err
		}
		if time.Now().After(silence) {
			return ErrStalled
		}
		cfg.Logf("replica: connection to %s lost: %v (reconnecting)", cfg.Addr, err)
		if !sleepOrStop(backoff, stop) {
			return nil
		}
	}
}

// applyError marks a callback failure: retrying on a fresh connection
// cannot help, the follower's state is in question.
type applyError struct{ err error }

func (e applyError) Error() string { return e.err.Error() }
func (e applyError) Unwrap() error { return e.err }

func isFatalApply(err error) bool {
	var ae applyError
	return errors.As(err, &ae)
}

// stream runs one connection: raw magic bytes, framed hello, then apply
// frames until the connection breaks, stop closes, or the silence budget
// runs out. Every received frame pushes the budget forward.
func (f *Follower) stream(conn net.Conn, stop <-chan struct{}, silence *time.Time) error {
	cfg := f.cfg
	var have Counters
	if cfg.Have != nil {
		have = cfg.Have()
	}
	hello := AppendHello([]byte{Magic, Version}, have)
	if err := conn.SetWriteDeadline(time.Now().Add(cfg.DialTimeout)); err != nil {
		return err
	}
	if _, err := conn.Write(hello); err != nil {
		return err
	}
	f.mu.Lock()
	f.connected = true
	f.mu.Unlock()

	br := bufio.NewReaderSize(conn, 64<<10)
	rd := wire.NewReaderSize(br, MaxFrame)
	for {
		payload, err := f.readFrame(conn, br, rd, stop, silence)
		if err != nil {
			if errors.Is(err, errStopped) {
				// Drain the shipped tail already sitting in the buffer
				// before acknowledging the stop.
				if derr := f.drainBuffered(rd); derr != nil {
					return derr
				}
			}
			return err
		}
		*silence = time.Now().Add(cfg.Timeout)
		if err := f.dispatch(payload); err != nil {
			return err
		}
	}
}

// readFrame blocks for one frame while watching stop and the silence
// budget. The header wait uses short restartable peeks on br, the buffer
// rd reads from (Peek never consumes, so a deadline there is safe to
// retry); once a header is seen the frame is read with the remaining
// silence budget as its deadline — a primary that dies mid-frame is a
// stalled primary.
func (f *Follower) readFrame(conn net.Conn, br *bufio.Reader, rd *wire.Reader, stop <-chan struct{}, silence *time.Time) ([]byte, error) {
	for {
		select {
		case <-stop:
			return nil, errStopped
		default:
		}
		if time.Now().After(*silence) {
			return nil, ErrStalled
		}
		if err := conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond)); err != nil {
			return nil, err
		}
		_, err := br.Peek(4)
		if err == nil {
			break
		}
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			continue
		}
		return nil, err
	}
	if err := conn.SetReadDeadline(*silence); err != nil {
		return nil, err
	}
	payload, err := rd.ReadFrame()
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			return nil, ErrStalled
		}
		return nil, err
	}
	return payload, nil
}

// drainBuffered applies every frame already complete in the buffer — the
// records the primary handed over before the stop — and stops quietly at
// the first one it cannot read. No further reads touch the connection.
func (f *Follower) drainBuffered(rd *wire.Reader) error {
	for {
		payload, ok, err := rd.TryReadFrame()
		if err != nil || !ok {
			return nil
		}
		mTailDrained.Inc()
		if err := f.dispatch(payload); err != nil {
			return err
		}
	}
}

// dispatch applies one frame.
func (f *Follower) dispatch(payload []byte) error {
	m, err := ParseMessage(payload)
	if err != nil {
		return err
	}
	switch m.Kind {
	case MsgSnapshot:
		mAppliedSnapshots.Inc()
		if f.cfg.OnSnapshot != nil {
			if err := f.cfg.OnSnapshot(m.Gen, m.Data); err != nil {
				return applyError{fmt.Errorf("replica: apply snapshot gen %d: %w", m.Gen, err)}
			}
		}
	case MsgRecord:
		mAppliedRecords.Inc()
		if f.cfg.OnRecord != nil {
			if err := f.cfg.OnRecord(m.Data); err != nil {
				return applyError{fmt.Errorf("replica: apply record: %w", err)}
			}
		}
	case MsgHeartbeat:
		mHeartbeatsSeen.Inc()
		f.mu.Lock()
		f.primary, f.primaryAt = m.Have, time.Now()
		f.mu.Unlock()
		if f.cfg.OnHeartbeat != nil {
			f.cfg.OnHeartbeat(m.Have)
		}
	default:
		return fmt.Errorf("replica: unexpected message kind 0x%02x from primary", m.Kind)
	}
	return nil
}

// sleepOrStop waits d, returning false if stop closed first.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
