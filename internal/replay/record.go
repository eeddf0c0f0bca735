package replay

import (
	"encoding/binary"
	"encoding/json"
	"errors"

	"jarvis/internal/device"
	"jarvis/internal/env"
)

// The daemon journals three record kinds to its write-ahead log, one
// record per WAL frame:
//
//	evt — every applied device event: the audit trail. Replay re-derives
//	      the transition and the P_safe verdict, so a restarted daemon
//	      (or the offline replay engine) reaches the exact pre-crash
//	      environment state and violation count.
//	txn — every event the learning path accepted (i.e. not shed by
//	      admission control). Carries the pre-event state, so replay can
//	      recompute the reward and re-observe the transition into the
//	      replay buffer, then re-run the same every-Nth learn steps with
//	      the same per-step seeds. A crashed-and-replayed daemon ends in
//	      the same training state as one that never crashed.
//	rec — every recommendation served. Pure re-execution marker: the
//	      daemon's recovery only bumps its counter (a recommendation has
//	      no state effect), while the offline engine re-runs the policy
//	      at the replayed state to regenerate — or counterfactually
//	      rewrite — the recorded decision.
//
// Records carry a sequence number per kind. A checkpoint save persists
// all three counters and then resets the log; if the daemon crashes
// between the save and the reset, replay skips every record whose
// sequence the checkpoint already covers, so the overlap window
// double-applies nothing.
//
// # Payload format
//
// A record is written in a compact binary form (AppendBinary):
//
//	0x01 | kind | uvarint N | uvarint M                        rec
//	         ... | uvarint D | varint A (zigzag) | U (0 or 1)   evt
//	         ... | uvarint len(S) | uvarint S[i] ...            txn
//
// kind is 1 (evt), 2 (txn) or 3 (rec). The leading version byte 0x01
// cannot be JSON's '{', so DecodeRecord also reads the JSON objects
// ({"k":"evt","n":1,...}) earlier revisions wrote: old segments and
// shipped frames stay readable, and one log may hold both forms.
const (
	KindEvent      = "evt"
	KindTransition = "txn"
	KindRecommend  = "rec"
)

// Record is one journaled WAL record.
type Record struct {
	K string          `json:"k"`           // KindEvent | KindTransition | KindRecommend
	N int             `json:"n"`           // sequence number within the kind
	M int             `json:"m"`           // minute-of-day at ingest
	D int             `json:"d"`           // device index (evt, txn)
	A device.ActionID `json:"a"`           // action applied to device D (evt, txn)
	U bool            `json:"u,omitempty"` // evt: flagged unsafe by P_safe
	S env.State       `json:"s,omitempty"` // txn: state before the event
}

// recordVersion opens every binary record payload.
const recordVersion = 0x01

// Binary kind bytes; 0 marks a record of unknown kind, which DecodeRecord
// rejects.
const (
	kindByteEvent      = 1
	kindByteTransition = 2
	kindByteRecommend  = 3
)

var (
	errUnknownKind   = errors.New("replay: unknown record kind")
	errBadRecord     = errors.New("replay: malformed binary record")
	errRecordVersion = errors.New("replay: unknown record format")
)

func kindByte(k string) byte {
	switch k {
	case KindEvent:
		return kindByteEvent
	case KindTransition:
		return kindByteTransition
	case KindRecommend:
		return kindByteRecommend
	}
	return 0
}

// AppendBinary appends the record's binary payload to dst and returns the
// extended slice; it allocates only when dst must grow. A record of
// unknown kind is written with kind byte 0, which no decoder accepts.
func (r Record) AppendBinary(dst []byte) []byte {
	k := kindByte(r.K)
	dst = append(dst, recordVersion, k)
	dst = binary.AppendUvarint(dst, uint64(r.N))
	dst = binary.AppendUvarint(dst, uint64(r.M))
	if k == kindByteRecommend || k == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(r.D))
	dst = binary.AppendVarint(dst, int64(r.A))
	u := byte(0)
	if r.U {
		u = 1
	}
	dst = append(dst, u)
	if k == kindByteTransition {
		dst = binary.AppendUvarint(dst, uint64(len(r.S)))
		for _, st := range r.S {
			dst = binary.AppendUvarint(dst, uint64(st))
		}
	}
	return dst
}

// Encode serializes the record for a WAL frame in the binary form.
func (r Record) Encode() ([]byte, error) {
	if kindByte(r.K) == 0 {
		return nil, errUnknownKind
	}
	return r.AppendBinary(make([]byte, 0, 16+len(r.S))), nil
}

// DecodeRecord parses one WAL frame payload, binary or legacy JSON. The
// framing CRC has already passed, so a decode failure means a foreign or
// future-format record the caller should skip, not kill recovery over.
func DecodeRecord(b []byte) (Record, error) {
	var r Record
	if len(b) == 0 {
		return r, errRecordVersion
	}
	switch b[0] {
	case '{':
		err := json.Unmarshal(b, &r)
		return r, err
	case recordVersion:
		return decodeBinary(b[1:])
	}
	return r, errRecordVersion
}

// decodeBinary parses a binary payload after its version byte. Every
// field must be present and nothing may follow the last one.
func decodeBinary(b []byte) (Record, error) {
	var r Record
	if len(b) == 0 {
		return r, errBadRecord
	}
	k := b[0]
	d := recordDecoder{b: b[1:]}
	switch k {
	case kindByteEvent:
		r.K = KindEvent
	case kindByteTransition:
		r.K = KindTransition
	case kindByteRecommend:
		r.K = KindRecommend
	default:
		return r, errUnknownKind
	}
	r.N, r.M = int(d.uvarint()), int(d.uvarint())
	if k != kindByteRecommend {
		r.D = int(d.uvarint())
		r.A = device.ActionID(d.varint())
		switch d.u8() {
		case 0:
		case 1:
			r.U = true
		default:
			d.bad = true
		}
	}
	if k == kindByteTransition {
		// Every state takes at least one byte, which bounds the length
		// before anything is allocated.
		if n := d.uvarint(); !d.bad && n <= uint64(len(d.b)) {
			r.S = make(env.State, n)
			for i := range r.S {
				r.S[i] = device.StateID(d.uvarint())
			}
		} else {
			d.bad = true
		}
	}
	if d.bad || len(d.b) != 0 {
		return Record{}, errBadRecord
	}
	return r, nil
}

// recordDecoder reads consecutive binary fields; the first short or
// malformed field sets bad, and every later read returns zero.
type recordDecoder struct {
	b   []byte
	bad bool
}

func (d *recordDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if d.bad || n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *recordDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if d.bad || n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *recordDecoder) u8() byte {
	if d.bad || len(d.b) == 0 {
		d.bad = true
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}
