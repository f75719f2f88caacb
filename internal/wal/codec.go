package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/sgb-db/sgb/internal/types"
)

// The row codec: a compact, self-describing binary encoding of
// types.Value rows shared by the WAL record bodies and the snapshot
// table sections. Integers are fixed-width little-endian — mutation
// records are dominated by float coordinates, so varint squeezing
// would buy little and cost branchy decode loops.

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendValue appends one SQL value: a kind byte followed by the
// kind's payload (nothing for NULL, 8 bytes for ints / floats / dates,
// 1 byte for bools, a length-prefixed string for text, 16 bytes for
// intervals).
func AppendValue(b []byte, v types.Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case types.KindNull:
	case types.KindInt, types.KindDate:
		b = AppendU64(b, uint64(v.I))
	case types.KindFloat:
		b = AppendU64(b, math.Float64bits(v.F))
	case types.KindText:
		b = AppendString(b, v.S)
	case types.KindBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case types.KindInterval:
		b = AppendU64(b, uint64(v.I))
		b = AppendU64(b, math.Float64bits(v.F))
	default:
		// Unknown kinds cannot round-trip; encode as NULL would silently
		// lose data, so make the frame undecodable instead.
		b = append(b, 0xFF)
	}
	return b
}

// AppendRow appends a value-count prefix and then each value.
func AppendRow(b []byte, row types.Row) []byte {
	b = AppendU32(b, uint32(len(row)))
	for _, v := range row {
		b = AppendValue(b, v)
	}
	return b
}

// maxDecodeCount bounds every decoded count and string length: a
// corrupt frame that survives the CRC check (or a fuzzer input) must
// not drive a multi-gigabyte allocation.
const maxDecodeCount = 1 << 26

// Decoder consumes the codec's encodings from a byte slice. Decode
// errors stick: after the first failure every method returns zero
// values and Err reports the cause, so call sites read fields linearly
// and check once.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b (which is not copied).
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.b) }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: decode: "+format, args...)
	}
}

// Byte consumes one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// U32 consumes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("truncated uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// U64 consumes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// Count consumes a uint32 element count whose elements each encode
// to at least minSize bytes. A count the remaining input cannot hold
// is corrupt, so it fails decoding instead of sizing an allocation:
// whatever a caller preallocates from a count stays proportional to
// the bytes it was given.
func (d *Decoder) Count(minSize int) int {
	n := d.U32()
	if d.err == nil && (n > maxDecodeCount || int(n) > len(d.b)/minSize) {
		d.fail("count %d exceeds the %d bytes remaining", n, len(d.b))
		return 0
	}
	return int(n)
}

// String consumes a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Count(1)
	if d.err != nil {
		return ""
	}
	if len(d.b) < n {
		d.fail("truncated string of length %d", n)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Value consumes one SQL value.
func (d *Decoder) Value() types.Value {
	kind := types.Kind(d.Byte())
	if d.err != nil {
		return types.Value{}
	}
	switch kind {
	case types.KindNull:
		return types.Null()
	case types.KindInt:
		return types.Int(int64(d.U64()))
	case types.KindDate:
		return types.Date(int64(d.U64()))
	case types.KindFloat:
		return types.Float(math.Float64frombits(d.U64()))
	case types.KindText:
		return types.Text(d.String())
	case types.KindBool:
		return types.Bool(d.Byte() != 0)
	case types.KindInterval:
		i := int64(d.U64())
		f := math.Float64frombits(d.U64())
		return types.Interval(i, f)
	default:
		d.fail("unknown value kind %d", int(kind))
		return types.Value{}
	}
}

// Row consumes one encoded row.
func (d *Decoder) Row() types.Row {
	n := d.Count(1) // a value is at least its kind byte
	if d.err != nil {
		return nil
	}
	row := make(types.Row, 0, n)
	for i := 0; i < n; i++ {
		row = append(row, d.Value())
		if d.err != nil {
			return nil
		}
	}
	return row
}

// Record types: one logical table mutation per WAL frame. Frames are
// written after the in-memory mutation succeeded and before the
// statement is acknowledged, so a frame in the log always describes a
// mutation replay can re-apply verbatim.

// RecordType tags a WAL frame payload.
type RecordType byte

// The WAL record kinds.
const (
	RecCreateTable RecordType = 1 + iota
	RecInsert
	RecDelete
	RecDropTable
)

// Record is one logical table mutation.
type Record interface{ recordType() RecordType }

// ColDef is one column of a CreateTable record.
type ColDef struct {
	Name string
	Kind types.Kind
}

// CreateTable records a CREATE TABLE.
type CreateTable struct {
	Name string
	Cols []ColDef
}

// Insert records the rows one INSERT statement (or bulk load) appended
// to a table, in insertion order and post type-coercion — replaying
// them through the ordinary insert path reproduces the stored rows
// exactly.
type Insert struct {
	Table string
	Rows  []types.Row
}

// Delete records the row indices one DELETE statement removed (sorted
// ascending, as storage.Table.DeleteRows requires).
type Delete struct {
	Table string
	Idx   []int
}

// DropTable records a DROP TABLE.
type DropTable struct {
	Name string
}

func (CreateTable) recordType() RecordType { return RecCreateTable }
func (Insert) recordType() RecordType      { return RecInsert }
func (Delete) recordType() RecordType      { return RecDelete }
func (DropTable) recordType() RecordType   { return RecDropTable }

// EncodeRecord serializes a record into a frame payload.
func EncodeRecord(rec Record) []byte {
	b := []byte{byte(rec.recordType())}
	switch r := rec.(type) {
	case CreateTable:
		b = AppendString(b, r.Name)
		b = AppendU32(b, uint32(len(r.Cols)))
		for _, c := range r.Cols {
			b = AppendString(b, c.Name)
			b = append(b, byte(c.Kind))
		}
	case Insert:
		b = AppendString(b, r.Table)
		b = AppendU32(b, uint32(len(r.Rows)))
		for _, row := range r.Rows {
			b = AppendRow(b, row)
		}
	case Delete:
		b = AppendString(b, r.Table)
		b = AppendU32(b, uint32(len(r.Idx)))
		for _, i := range r.Idx {
			b = AppendU64(b, uint64(i))
		}
	case DropTable:
		b = AppendString(b, r.Name)
	default:
		panic(fmt.Sprintf("wal: unknown record %T", rec))
	}
	return b
}

// DecodeRecord parses a frame payload back into a record.
func DecodeRecord(payload []byte) (Record, error) {
	d := NewDecoder(payload)
	switch rt := RecordType(d.Byte()); rt {
	case RecCreateTable:
		r := CreateTable{Name: d.String()}
		n := d.Count(5) // name length + kind byte
		for i := 0; i < n && d.Err() == nil; i++ {
			r.Cols = append(r.Cols, ColDef{Name: d.String(), Kind: types.Kind(d.Byte())})
		}
		return finishRecord(r, d)
	case RecInsert:
		r := Insert{Table: d.String()}
		n := d.Count(4) // a row is at least its value count
		for i := 0; i < n && d.Err() == nil; i++ {
			r.Rows = append(r.Rows, d.Row())
		}
		return finishRecord(r, d)
	case RecDelete:
		r := Delete{Table: d.String()}
		n := d.Count(8)
		for i := 0; i < n && d.Err() == nil; i++ {
			r.Idx = append(r.Idx, int(d.U64()))
		}
		return finishRecord(r, d)
	case RecDropTable:
		return finishRecord(DropTable{Name: d.String()}, d)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", byte(rt))
	}
}

// finishRecord enforces that a payload decoded cleanly and completely;
// trailing garbage means the frame does not hold what its length
// claims.
func finishRecord(rec Record, d *Decoder) (Record, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("wal: record has %d trailing bytes", d.Len())
	}
	return rec, nil
}
