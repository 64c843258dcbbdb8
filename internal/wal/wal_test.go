package wal

import (
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestKindString(t *testing.T) {
	if KindCommit.String() != "COMMIT" || KindInsert.String() != "INSERT" {
		t.Error("Kind.String")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := Record{
		LSN:   42,
		TxnID: 7,
		Kind:  KindInsert,
		Table: "orders",
		Row: types.Row{
			types.NewInt(-5),
			types.NewFloat(2.75),
			types.NewString("héllo"),
			types.NewBool(true),
			types.NewNull(types.String),
		},
	}
	buf := rec.Encode(nil)
	got, err := DecodeRecord(buf)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if got.LSN != rec.LSN || got.TxnID != rec.TxnID || got.Kind != rec.Kind || got.Table != rec.Table {
		t.Fatalf("header mismatch: %+v", got)
	}
	if types.CompareKeys(got.Row, rec.Row) != 0 {
		t.Fatalf("row mismatch: %v vs %v", got.Row, rec.Row)
	}
	if !got.Row[4].Null {
		t.Fatal("null not preserved")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		rec := Record{LSN: 1, TxnID: 2, Kind: KindUpdate, Table: "t",
			Row: types.Row{types.NewInt(i), types.NewFloat(fl), types.NewString(s), types.NewBool(b)}}
		got, err := DecodeRecord(rec.Encode(nil))
		if err != nil {
			return false
		}
		return types.CompareKeys(got.Row, rec.Row) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeTorn(t *testing.T) {
	rec := Record{LSN: 1, TxnID: 1, Kind: KindInsert, Table: "t", Row: types.Row{types.NewString("abcdef")}}
	buf := rec.Encode(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeRecord(buf[:cut]); err == nil {
			// Some prefixes can decode to a shorter valid record only if
			// varint boundaries align; LSN+txn+kind+lengths make that
			// impossible before the full row is present.
			t.Fatalf("truncated decode at %d succeeded", cut)
		}
	}
}
