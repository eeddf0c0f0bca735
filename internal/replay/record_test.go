package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"jarvis/internal/env"
	"jarvis/internal/wal"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{K: KindEvent, N: 7, M: 600, D: 3, A: 1, U: true},
		{K: KindTransition, N: 12, M: 1439, D: 0, A: 2, S: env.State{0, 1, 0, 2}},
		{K: KindRecommend, N: 1, M: 0},
	}
	for _, want := range recs {
		b, err := want.Encode()
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{[]byte("not json"), []byte(`[1,2,3]`), {0xff, 0x00}} {
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("DecodeRecord(%q) decoded garbage", b)
		}
	}
}

// binaryRecords covers every kind and the field values that stress the
// varints: large sequence numbers, a negative action (zigzag), a long
// state with multi-byte values.
var binaryRecords = []Record{
	{K: KindEvent, N: 1, M: 0, D: 0, A: 0},
	{K: KindEvent, N: 1 << 40, M: 1439, D: 300, A: -3, U: true},
	{K: KindTransition, N: 9, M: 61, D: 2, A: 5, S: env.State{0, 1, 0, 2}},
	{K: KindTransition, N: 70000, M: 600, D: 1, A: -1, S: env.State{200, 0, 1 << 20}},
	{K: KindRecommend, N: 1, M: 0},
	{K: KindRecommend, N: 4_000_000, M: 1200},
}

func TestBinaryRecordForm(t *testing.T) {
	for _, want := range binaryRecords {
		b, err := want.Encode()
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		if b[0] != recordVersion {
			t.Errorf("%+v encodes with leading byte %#x, want the version byte %#x", want, b[0], recordVersion)
		}
		if ab := want.AppendBinary([]byte("prefix")); !bytes.Equal(ab[6:], b) || string(ab[:6]) != "prefix" {
			t.Errorf("AppendBinary disagrees with Encode for %+v", want)
		}
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode %x: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
	// The rec record the serving path journals most is a handful of bytes.
	if b, _ := (Record{K: KindRecommend, N: 4_000_000, M: 1200}).Encode(); len(b) > 8 {
		t.Errorf("rec record takes %d bytes, want at most 8", len(b))
	}
	if _, err := (Record{K: "bogus"}).Encode(); err == nil {
		t.Error("Encode accepted an unknown kind")
	}
	if _, err := DecodeRecord(Record{K: "bogus", N: 1}.AppendBinary(nil)); err == nil {
		t.Error("a record of unknown kind decoded")
	}
}

// TestDecodeRecordLegacyJSON: the JSON objects earlier revisions journaled
// still decode, so old segments and shipped frames stay readable.
func TestDecodeRecordLegacyJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Record
	}{
		{`{"k":"evt","n":7,"m":600,"d":3,"a":1,"u":true}`, Record{K: KindEvent, N: 7, M: 600, D: 3, A: 1, U: true}},
		{`{"k":"txn","n":12,"m":1439,"d":0,"a":2,"s":[0,1,0,2]}`, Record{K: KindTransition, N: 12, M: 1439, A: 2, S: env.State{0, 1, 0, 2}}},
		{`{"k":"rec","n":1,"m":0,"d":0,"a":0}`, Record{K: KindRecommend, N: 1}},
	} {
		got, err := DecodeRecord([]byte(tc.in))
		if err != nil {
			t.Fatalf("decode %s: %v", tc.in, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("decode %s: got %+v, want %+v", tc.in, got, tc.want)
		}
		// What the previous revision's Encode wrote is what json.Marshal
		// writes; it must decode to the same record.
		b, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeRecord(b); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("decode %s: got %+v, %v; want %+v", b, got, err, tc.want)
		}
	}
}

// TestDecodeRecordRejectsMalformedBinary: every strict prefix of a binary
// record, trailing bytes, an out-of-range flag, a state longer than the
// payload and an unknown version byte are all refused.
func TestDecodeRecordRejectsMalformedBinary(t *testing.T) {
	for _, rec := range binaryRecords {
		b, _ := rec.Encode()
		for i := 0; i < len(b); i++ {
			if _, err := DecodeRecord(b[:i]); err == nil {
				t.Errorf("%d-byte prefix of %x decoded", i, b)
			}
		}
		if _, err := DecodeRecord(append(b[:len(b):len(b)], 0)); err == nil {
			t.Errorf("%x with a trailing byte decoded", b)
		}
	}
	evt, _ := Record{K: KindEvent, N: 1, M: 2, D: 3, A: 4}.Encode()
	evt[len(evt)-1] = 2 // U flag
	if _, err := DecodeRecord(evt); err == nil {
		t.Error("U flag 2 decoded")
	}
	txn, _ := Record{K: KindTransition, N: 1, S: env.State{1}}.Encode()
	txn[len(txn)-2] = 100 // state length beyond the payload
	if _, err := DecodeRecord(txn); err == nil {
		t.Error("oversized state length decoded")
	}
	if _, err := DecodeRecord([]byte{0x02, 3, 1, 1}); !errors.Is(err, errRecordVersion) {
		t.Errorf("version 2 payload: %v, want errRecordVersion", err)
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("empty payload decoded")
	}
}

func TestAppendBinaryAllocationFree(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, rec := range binaryRecords {
		if allocs := testing.AllocsPerRun(100, func() {
			buf = rec.AppendBinary(buf[:0])
		}); allocs != 0 {
			t.Errorf("AppendBinary(%s) allocates %.1f times, want 0", rec.K, allocs)
		}
	}
}

// TestMixedJSONBinaryWALReplaysLikeAllBinary: a WAL whose first records
// were journaled as JSON by an earlier revision and whose rest is binary
// replays to the same Home state, counters and Q function as an
// all-binary WAL of the same run.
func TestMixedJSONBinaryWALReplaysLikeAllBinary(t *testing.T) {
	const events = 24 // 24 evt + 24 txn + 6 rec records
	dir := t.TempDir()
	binDir, mixDir := filepath.Join(dir, "bin"), filepath.Join(dir, "mix")
	live := synthesizeWAL(t, binDir, events)
	var frames int
	synthesizeWALWith(t, mixDir, events, func(rec Record) ([]byte, error) {
		frames++
		if frames <= 27 {
			return json.Marshal(rec)
		}
		return rec.Encode()
	})

	c, err := wal.OpenCursor(mixDir)
	if err != nil {
		t.Fatal(err)
	}
	forms := map[byte]int{}
	for {
		b, err := c.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		forms[b[0]]++
	}
	c.Close()
	if forms['{'] != 27 || forms[recordVersion] != frames-27 {
		t.Fatalf("mixed WAL holds %d JSON and %d binary records, want 27 and %d", forms['{'], forms[recordVersion], frames-27)
	}

	bin := NewHome(buildTrained(t), testConfig)
	applyWAL(t, bin, binDir)
	assertSameHome(t, "all-binary WAL vs live", live, bin)
	mix := NewHome(buildTrained(t), testConfig)
	applyWAL(t, mix, mixDir)
	assertSameHome(t, "mixed WAL vs all-binary WAL", bin, mix)
}
