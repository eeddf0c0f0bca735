package replay

import (
	"encoding/json"
	"reflect"
	"testing"

	"jarvis/internal/env"
)

// FuzzDecodeRecord throws arbitrary payloads at the record decoder, the
// first code to read a frame that passed the WAL's CRC (from disk or from
// a replication stream). It must never panic, and anything it accepts
// must survive a binary round trip: re-encoded and decoded again, it is
// the same record.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range binaryRecords {
		b, _ := rec.Encode()
		f.Add(b)
		j, _ := json.Marshal(rec)
		f.Add(j)
	}
	f.Add([]byte{})
	f.Add([]byte{recordVersion})
	f.Add([]byte{recordVersion, kindByteTransition, 1, 1, 1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(`{"k":"txn","n":-1,"s":[-5]}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeRecord(b)
		if err != nil {
			return
		}
		switch rec.K {
		case KindEvent, KindRecommend:
			// The binary form carries no state for these kinds.
			rec.S = nil
		case KindTransition:
			if rec.S == nil {
				rec.S = env.State{}
			}
		default:
			if b[0] == recordVersion {
				t.Fatalf("binary payload %x decoded to unknown kind %q", b, rec.K)
			}
			return // a JSON record of a foreign kind: Apply refuses it
		}
		if rec.K == KindRecommend {
			rec.D, rec.A, rec.U = 0, 0, false
		}
		enc, err := rec.Encode()
		if err != nil {
			t.Fatalf("re-encode %+v: %v", rec, err)
		}
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode %x (from %+v): %v", enc, rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip of %x: got %+v, want %+v", b, got, rec)
		}
	})
}
