// Package wal implements the write-ahead log that gives the engine the
// durability half of ACID the tutorial requires of operational analytics
// systems (distinguishing them from streaming engines, §1).
//
// Format: length-prefixed records, each protected by a CRC32. Records
// carry an LSN, a transaction id, a kind, and a payload (serialized rows
// for data records). Log (log.go) appends them to a directory of
// segments with group commit; ReplayDir scans the segments, validates
// checksums, and delivers records in log order, stopping cleanly at a
// torn tail.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/types"
)

// Kind identifies a WAL record type.
type Kind uint8

// Record kinds.
const (
	KindBegin Kind = iota + 1
	KindCommit
	KindAbort
	KindInsert
	KindUpdate
	KindDelete
	KindCheckpoint
	// KindCreateTable logs a catalog operation: Table names the new
	// table and Row carries the schema (see SchemaToRow). Replay applies
	// catalog records unconditionally, in log order — they are durable
	// the moment their append is, independent of any transaction.
	KindCreateTable
)

// String returns the record kind name.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "BEGIN"
	case KindCommit:
		return "COMMIT"
	case KindAbort:
		return "ABORT"
	case KindInsert:
		return "INSERT"
	case KindUpdate:
		return "UPDATE"
	case KindDelete:
		return "DELETE"
	case KindCheckpoint:
		return "CHECKPOINT"
	case KindCreateTable:
		return "CREATE_TABLE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one WAL entry. For INSERT/UPDATE the Row is the after-image;
// for DELETE it is the key projection. Table names the target table.
type Record struct {
	LSN   uint64
	TxnID uint64
	Kind  Kind
	Table string
	Row   types.Row
}

// ErrTorn is returned by a reader encountering a torn or corrupt record;
// ScanRecords treats it as end-of-log.
var ErrTorn = errors.New("wal: torn or corrupt record")

// encodeValue appends a value to buf: 1 type byte (0xff = null marker
// with nominal type in next byte) then the payload.
func encodeValue(buf []byte, v types.Value) []byte {
	if v.Null {
		buf = append(buf, 0xff, byte(v.Typ))
		return buf
	}
	buf = append(buf, byte(v.Typ))
	switch v.Typ {
	case types.Int64, types.Bool:
		buf = binary.AppendUvarint(buf, uint64(v.I))
	case types.Float64:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case types.String:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	}
	return buf
}

func decodeValue(buf []byte) (types.Value, []byte, error) {
	if len(buf) < 1 {
		return types.Value{}, nil, ErrTorn
	}
	tag := buf[0]
	buf = buf[1:]
	if tag == 0xff {
		if len(buf) < 1 {
			return types.Value{}, nil, ErrTorn
		}
		return types.NewNull(types.Type(buf[0])), buf[1:], nil
	}
	t := types.Type(tag)
	switch t {
	case types.Int64, types.Bool:
		u, n := binary.Uvarint(buf)
		if n <= 0 {
			return types.Value{}, nil, ErrTorn
		}
		v := types.Value{Typ: t, I: int64(u)}
		return v, buf[n:], nil
	case types.Float64:
		if len(buf) < 8 {
			return types.Value{}, nil, ErrTorn
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		return types.NewFloat(f), buf[8:], nil
	case types.String:
		u, n := binary.Uvarint(buf)
		if n <= 0 || len(buf[n:]) < int(u) {
			return types.Value{}, nil, ErrTorn
		}
		s := string(buf[n : n+int(u)])
		return types.NewString(s), buf[n+int(u):], nil
	default:
		return types.Value{}, nil, ErrTorn
	}
}

// Encode serializes the record body (without the length/CRC frame).
func (r *Record) Encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.LSN)
	buf = binary.AppendUvarint(buf, r.TxnID)
	buf = append(buf, byte(r.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(r.Table)))
	buf = append(buf, r.Table...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Row)))
	for _, v := range r.Row {
		buf = encodeValue(buf, v)
	}
	return buf
}

// DecodeRecord parses a record body.
func DecodeRecord(buf []byte) (Record, error) {
	var r Record
	if len(buf) < 9 {
		return r, ErrTorn
	}
	r.LSN = binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	txn, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, ErrTorn
	}
	r.TxnID = txn
	buf = buf[n:]
	if len(buf) < 1 {
		return r, ErrTorn
	}
	r.Kind = Kind(buf[0])
	buf = buf[1:]
	tl, n := binary.Uvarint(buf)
	if n <= 0 || len(buf[n:]) < int(tl) {
		return r, ErrTorn
	}
	r.Table = string(buf[n : n+int(tl)])
	buf = buf[n+int(tl):]
	nv, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, ErrTorn
	}
	buf = buf[n:]
	r.Row = make(types.Row, 0, nv)
	for i := uint64(0); i < nv; i++ {
		var v types.Value
		var err error
		v, buf, err = decodeValue(buf)
		if err != nil {
			return r, err
		}
		r.Row = append(r.Row, v)
	}
	return r, nil
}

// SchemaToRow flattens a table schema into a Row so catalog operations
// ride the ordinary record format: [ncols, (name, type)*, key indices*].
func SchemaToRow(s *types.Schema) types.Row {
	row := make(types.Row, 0, 1+2*len(s.Cols)+len(s.Key))
	row = append(row, types.NewInt(int64(len(s.Cols))))
	for _, c := range s.Cols {
		row = append(row, types.NewString(c.Name), types.NewInt(int64(c.Type)))
	}
	for _, k := range s.Key {
		row = append(row, types.NewInt(int64(k)))
	}
	return row
}

// SchemaFromRow reverses SchemaToRow.
func SchemaFromRow(row types.Row) (*types.Schema, error) {
	if len(row) < 1 || row[0].Typ != types.Int64 {
		return nil, fmt.Errorf("wal: malformed schema record")
	}
	ncols := int(row[0].I)
	if ncols < 0 || len(row) < 1+2*ncols {
		return nil, fmt.Errorf("wal: malformed schema record: %d columns, %d values", ncols, len(row))
	}
	s := &types.Schema{Cols: make([]types.Column, ncols)}
	for i := 0; i < ncols; i++ {
		name, typ := row[1+2*i], row[2+2*i]
		if name.Typ != types.String || typ.Typ != types.Int64 {
			return nil, fmt.Errorf("wal: malformed schema record: column %d", i)
		}
		s.Cols[i] = types.Column{Name: name.S, Type: types.Type(typ.I)}
	}
	for _, v := range row[1+2*ncols:] {
		if v.Typ != types.Int64 || v.I < 0 || int(v.I) >= ncols {
			return nil, fmt.Errorf("wal: malformed schema record: key index %v", v)
		}
		s.Key = append(s.Key, int(v.I))
	}
	return s, nil
}

// frameOverhead is the per-record framing cost: 4-byte length + 4-byte
// CRC32 of the body.
const frameOverhead = 8

// AppendFrame appends the framed (length + CRC + body) encoding of rec
// to buf. The record's LSN must already be assigned.
func AppendFrame(buf []byte, rec *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = rec.Encode(buf)
	body := buf[start+frameOverhead:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.ChecksumIEEE(body))
	return buf
}

// ScanRecords reads framed records from r until EOF or the first torn,
// corrupt, or implausible frame, returning the intact prefix and the
// byte length it occupies (the offset a recovering writer truncates to).
func ScanRecords(r io.Reader) (recs []Record, validBytes int64) {
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		var hdr [frameOverhead]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return recs, validBytes // clean EOF or torn header: end of log
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > 1<<28 {
			return recs, validBytes // implausible length: torn
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(br, frame); err != nil {
			return recs, validBytes
		}
		if crc32.ChecksumIEEE(frame) != sum {
			return recs, validBytes
		}
		rec, err := DecodeRecord(frame)
		if err != nil {
			return recs, validBytes
		}
		recs = append(recs, rec)
		validBytes += int64(frameOverhead) + int64(n)
	}
}
