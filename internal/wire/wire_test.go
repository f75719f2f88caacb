package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		{0x42},
		bytes.Repeat([]byte("similarity"), 100),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %x, want %x", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean end of stream: got %v, want io.EOF", err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("the payload under test")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload bit: the checksum must catch it.
	raw[len(raw)-1] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt payload: got %v, want checksum mismatch", err)
	}
}

func TestFrameTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("cut short")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{1, 5, len(raw) - 1} {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("truncation at %d bytes: got %v, want a mid-frame error", cut, err)
		}
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	// A header announcing an absurd payload must be rejected before any
	// allocation happens.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame: got %v, want limit error", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	const sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.5"
	got, err := DecodeQuery(EncodeQuery(sql))
	if err != nil {
		t.Fatal(err)
	}
	if got != sql {
		t.Fatalf("got %q, want %q", got, sql)
	}
	if _, err := DecodeQuery(EncodeCount(3)); err == nil {
		t.Fatal("count frame decoded as query")
	}
	if _, err := DecodeQuery(append(EncodeQuery("x"), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cols := []string{"eps", "count"}
	rows := []types.Row{
		{types.Float(0.5), types.Int(3)},
		{types.Float(1.0), types.Int(1)},
		{types.Null(), types.Text("grouped")},
	}
	resp, err := DecodeResponse(EncodeRows(cols, rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Columns, cols) || !reflect.DeepEqual(resp.Data, rows) || resp.Count != len(rows) {
		t.Fatalf("rows response mangled: %+v", resp)
	}

	resp, err = DecodeResponse(EncodeCount(42))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 42 || resp.Err != "" || resp.Data != nil {
		t.Fatalf("count response mangled: %+v", resp)
	}

	resp, err = DecodeResponse(EncodeErr(errors.New("sgb: no such table")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "sgb: no such table" {
		t.Fatalf("error response mangled: %+v", resp)
	}

	if _, err := DecodeResponse([]byte{0x7F}); err == nil {
		t.Fatal("unknown message type accepted")
	}
	if _, err := DecodeResponse(append(EncodeCount(1), 9)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestResponseCountBoundedByPayload pins that a row or column count is
// checked against the payload bytes before anything is sized from it:
// a 9-byte MsgRows frame claiming 2^20 rows (or columns) fails without
// allocating for them.
func TestResponseCountBoundedByPayload(t *testing.T) {
	const claimed = 1 << 20
	for _, c := range []struct {
		name  string
		ncols uint32
		nrows uint32
	}{
		{"rows", 0, claimed},
		{"columns", claimed, 0},
	} {
		payload := []byte{MsgRows}
		payload = wal.AppendU32(payload, c.ncols)
		payload = wal.AppendU32(payload, c.nrows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeResponse(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte payload claiming %d elements decoded", c.name, len(payload), claimed)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("%s: decoding a %d-byte payload allocated %d bytes", c.name, len(payload), grew)
		}
	}
}
