// Package wire is jarvisd's binary serving protocol: length-prefixed
// little-endian frames negotiated by a two-byte handshake, designed so the
// steady-state recommend exchange allocates nothing on either side.
//
// Negotiation: a binary client opens with {Magic, Version} — Magic (0xB7)
// can never begin a JSON-lines request ('{' is 0x7B), so the daemon peeks
// one byte to pick the codec and old JSON clients are untouched. The
// daemon acknowledges with a frame carrying the same two bytes; a client
// that does not receive the ack (an old daemon kills the connection when
// JSON decoding hits 0xB7) redials and speaks JSON instead.
//
// Framing: every subsequent message is a u32 little-endian payload length
// followed by the payload, capped at MaxFrame. Requests are a fixed
// 5-byte payload; responses are a fixed header plus optional sections
// gated by flag bits. Device states and actions travel as numeric IDs —
// both ends own the same FSM product, so the client renders names locally
// and the daemon's hot path never formats a string.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	// Magic is the first byte a binary client sends; distinct from '{' so
	// the daemon can tell the codecs apart with a one-byte peek.
	Magic = 0xB7
	// Version is the protocol revision; bumped on layout changes. The
	// handshake pins it, so both ends of a connection always agree.
	Version = 1
	// MaxFrame caps one frame's payload, bounding what a malformed or
	// hostile length prefix can make either side allocate.
	MaxFrame = 1 << 16
)

// Request ops, mirroring the JSON protocol's op strings.
const (
	OpState      = 1
	OpEvent      = 2
	OpRecommend  = 3
	OpViolations = 4
	OpCheckpoint = 5
	OpLearnState = 6
	OpPromote    = 7
)

// Response flag bits. Section flags gate the optional payload blocks that
// follow the fixed header, in flag-bit order.
const (
	FlagOK        = 1 << 0
	FlagUnsafe    = 1 << 1
	FlagBusy      = 1 << 2
	FlagHasState  = 1 << 3
	FlagHasAction = 1 << 4
	FlagHasLearn  = 1 << 5
	FlagHasErr    = 1 << 6
)

// reqPayloadLen is the fixed request payload: op u8, device u16, action
// i16.
const reqPayloadLen = 5

// respHeaderLen is the fixed response header: flags u8, minute u16,
// violations u32, degraded u32, retryAfterMs u32, q f64.
const respHeaderLen = 1 + 2 + 4 + 4 + 4 + 8

// Request is one client message. Device and Action are numeric: the
// environment's device index and the device-local action ID (event op
// only; zero otherwise).
type Request struct {
	Op     uint8
	Device uint16
	Action int16
}

// Response is one daemon message, mirroring the JSON response field for
// field but with states and actions as IDs. State, Action, QSum, and Err
// alias or reuse decode buffers — valid until the next decode on the same
// Response / Reader.
type Response struct {
	Flags        uint8
	Minute       int
	Violations   int
	Degraded     int
	RetryAfterMs int
	Q            float64
	State        []uint8 // per-device StateID, when FlagHasState
	Action       []int16 // per-device ActionID (-1 = no action), when FlagHasAction
	// learnstate block, when FlagHasLearn.
	ReplaySize  int
	Events      int
	OnlineSteps int
	LearnSteps  int
	Recommends  int
	QSum        []byte
	Err         []byte // when FlagHasErr
}

// OK reports whether the daemon accepted the request.
func (r *Response) OK() bool { return r.Flags&FlagOK != 0 }

// Unsafe reports whether an applied event was flagged by P_safe.
func (r *Response) Unsafe() bool { return r.Flags&FlagUnsafe != 0 }

// Busy reports an admission-control rejection; retry after RetryAfterMs.
func (r *Response) Busy() bool { return r.Flags&FlagBusy != 0 }

// AppendHandshake appends the two-byte client hello.
func AppendHandshake(dst []byte) []byte {
	return append(dst, Magic, Version)
}

// AppendAck appends the daemon's handshake acknowledgment — a regular
// frame whose payload repeats {Magic, Version}.
func AppendAck(dst []byte) []byte {
	return append(dst, 2, 0, 0, 0, Magic, Version)
}

// IsAck reports whether an ack frame payload confirms this protocol
// version.
func IsAck(payload []byte) bool {
	return len(payload) == 2 && payload[0] == Magic && payload[1] == Version
}

// AppendRequest appends one framed request to dst and returns the
// extended slice. Append-style so callers reuse one buffer across
// requests — zero allocations at steady state.
func AppendRequest(dst []byte, req Request) []byte {
	dst = le32(dst, reqPayloadLen)
	dst = append(dst, req.Op)
	dst = le16(dst, req.Device)
	dst = le16(dst, uint16(req.Action))
	return dst
}

// ParseRequest decodes one request payload (the frame body, length prefix
// already stripped).
func ParseRequest(payload []byte) (Request, error) {
	if len(payload) != reqPayloadLen {
		return Request{}, fmt.Errorf("wire: request payload is %d bytes, want %d", len(payload), reqPayloadLen)
	}
	return Request{
		Op:     payload[0],
		Device: binary.LittleEndian.Uint16(payload[1:]),
		Action: int16(binary.LittleEndian.Uint16(payload[3:])),
	}, nil
}

// AppendResponse appends one framed response to dst and returns the
// extended slice. Optional sections are emitted in flag-bit order; the
// section flags are derived from the populated slices and counters, so
// callers only fill fields.
func AppendResponse(dst []byte, r *Response) []byte {
	flags := r.Flags &^ (FlagHasState | FlagHasAction | FlagHasErr)
	if r.State != nil {
		flags |= FlagHasState
	}
	if r.Action != nil {
		flags |= FlagHasAction
	}
	if r.Err != nil {
		flags |= FlagHasErr
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	dst = append(dst, flags)
	dst = le16(dst, uint16(r.Minute))
	dst = le32(dst, uint32(r.Violations))
	dst = le32(dst, uint32(r.Degraded))
	dst = le32(dst, uint32(r.RetryAfterMs))
	dst = le64(dst, math.Float64bits(r.Q))
	if flags&FlagHasState != 0 {
		dst = append(dst, uint8(len(r.State)))
		dst = append(dst, r.State...)
	}
	if flags&FlagHasAction != 0 {
		dst = append(dst, uint8(len(r.Action)))
		for _, a := range r.Action {
			dst = le16(dst, uint16(a))
		}
	}
	if flags&FlagHasLearn != 0 {
		dst = le32(dst, uint32(r.ReplaySize))
		dst = le32(dst, uint32(r.Events))
		dst = le32(dst, uint32(r.OnlineSteps))
		dst = le32(dst, uint32(r.LearnSteps))
		dst = le32(dst, uint32(r.Recommends))
		dst = le16(dst, uint16(len(r.QSum)))
		dst = append(dst, r.QSum...)
	}
	if flags&FlagHasErr != 0 {
		dst = le16(dst, uint16(len(r.Err)))
		dst = append(dst, r.Err...)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// Decode parses one response payload into r. State, QSum, and Err alias
// payload; Action reuses r's slice capacity — no allocations once the
// Response has served a same-shape decode.
func (r *Response) Decode(payload []byte) error {
	if len(payload) < respHeaderLen {
		return fmt.Errorf("wire: response payload is %d bytes, want at least %d", len(payload), respHeaderLen)
	}
	r.Flags = payload[0]
	r.Minute = int(binary.LittleEndian.Uint16(payload[1:]))
	r.Violations = int(binary.LittleEndian.Uint32(payload[3:]))
	r.Degraded = int(binary.LittleEndian.Uint32(payload[7:]))
	r.RetryAfterMs = int(binary.LittleEndian.Uint32(payload[11:]))
	r.Q = math.Float64frombits(binary.LittleEndian.Uint64(payload[15:]))
	r.State, r.Err, r.QSum = nil, nil, nil
	r.Action = r.Action[:0]
	r.ReplaySize, r.Events, r.OnlineSteps, r.LearnSteps, r.Recommends = 0, 0, 0, 0, 0
	p := payload[respHeaderLen:]
	var err error
	if r.Flags&FlagHasState != 0 {
		if r.State, p, err = section8(p); err != nil {
			return err
		}
	}
	if r.Flags&FlagHasAction != 0 {
		if len(p) < 1 {
			return errTruncated
		}
		n := int(p[0])
		p = p[1:]
		if len(p) < 2*n {
			return errTruncated
		}
		for i := 0; i < n; i++ {
			r.Action = append(r.Action, int16(binary.LittleEndian.Uint16(p[2*i:])))
		}
		p = p[2*n:]
	}
	if r.Flags&FlagHasLearn != 0 {
		if len(p) < 22 {
			return errTruncated
		}
		r.ReplaySize = int(binary.LittleEndian.Uint32(p[0:]))
		r.Events = int(binary.LittleEndian.Uint32(p[4:]))
		r.OnlineSteps = int(binary.LittleEndian.Uint32(p[8:]))
		r.LearnSteps = int(binary.LittleEndian.Uint32(p[12:]))
		r.Recommends = int(binary.LittleEndian.Uint32(p[16:]))
		n := int(binary.LittleEndian.Uint16(p[20:]))
		p = p[22:]
		if len(p) < n {
			return errTruncated
		}
		r.QSum, p = p[:n], p[n:]
	}
	if r.Flags&FlagHasErr != 0 {
		if len(p) < 2 {
			return errTruncated
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n {
			return errTruncated
		}
		r.Err, p = p[:n], p[n:]
	}
	if len(p) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after response", len(p))
	}
	return nil
}

var errTruncated = fmt.Errorf("wire: truncated response section")

// section8 parses a u8-counted byte section, returning it and the rest.
func section8(p []byte) (sec, rest []byte, err error) {
	if len(p) < 1 {
		return nil, nil, errTruncated
	}
	n := int(p[0])
	p = p[1:]
	if len(p) < n {
		return nil, nil, errTruncated
	}
	return p[:n], p[n:], nil
}

func le16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func le32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Reader reads frames off a buffered stream. ReadFrame blocks for a whole
// frame; TryReadFrame drains only frames already sitting in the buffer —
// the coalescing primitive the daemon batches with. Both return a payload
// slice owned by the Reader, valid until the next call.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	max int
}

// NewReader wraps r. If r is already a *bufio.Reader it is used directly
// (the daemon hands over the reader it peeked the codec byte from).
func NewReader(r io.Reader) *Reader {
	return NewReaderSize(r, MaxFrame)
}

// NewReaderSize is NewReader with a custom frame cap for protocols layered
// on the same framing whose payloads outgrow MaxFrame (the replication
// stream ships whole checkpoint snapshots in one frame).
func NewReaderSize(r io.Reader, max int) *Reader {
	if max <= 0 {
		max = MaxFrame
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 32<<10)
	}
	return &Reader{br: br, max: max}
}

// Buffered returns how many bytes are already readable without I/O.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadFrame blocks until one whole frame arrives and returns its payload.
func (r *Reader) ReadFrame() ([]byte, error) {
	hdr, err := r.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n, err := r.frameLen(hdr)
	if err != nil {
		return nil, err
	}
	if _, err := r.br.Discard(4); err != nil {
		return nil, err
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// TryReadFrame returns the next frame only if it is already complete in
// the buffer — it never blocks on the connection. ok is false when no
// complete frame is buffered.
func (r *Reader) TryReadFrame() (payload []byte, ok bool, err error) {
	if r.br.Buffered() < 4 {
		return nil, false, nil
	}
	hdr, err := r.br.Peek(4)
	if err != nil {
		return nil, false, err
	}
	n, err := r.frameLen(hdr)
	if err != nil {
		return nil, false, err
	}
	if r.br.Buffered() < 4+n {
		return nil, false, nil
	}
	if _, err := r.br.Discard(4); err != nil {
		return nil, false, err
	}
	full, err := r.br.Peek(n)
	if err != nil {
		return nil, false, err
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	copy(buf, full)
	if _, err := r.br.Discard(n); err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

func (r *Reader) frameLen(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	max := r.max
	if max == 0 {
		max = MaxFrame
	}
	if n > uint32(max) {
		return 0, fmt.Errorf("wire: frame length %d exceeds cap %d", n, max)
	}
	return int(n), nil
}

// AppendFrame appends one length-prefixed frame carrying payload — the
// write-side primitive shared by every protocol on this framing.
func AppendFrame(dst, payload []byte) []byte {
	dst = le32(dst, uint32(len(payload)))
	return append(dst, payload...)
}
