package proto

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// sampleMsgs covers every op with representative field values.
func sampleMsgs() []*Msg {
	return []*Msg{
		{Op: OpHello, Seq: 0, Magic: Magic, Version: Version},
		{Op: OpPut, Seq: 1, Table: "orders", Key: 42, Body: []byte("hello world")},
		{Op: OpPut, Seq: 2, Table: "", Key: 0, Body: nil},
		{Op: OpDelete, Seq: 3, Table: "t0", Key: ^uint64(0)},
		{Op: OpModify, Seq: 4, Table: "t1", Key: 7, Off: 8, Body: []byte{1, 2, 3}},
		{Op: OpScan, Seq: 5, Table: "t2", Begin: 10, End: 99999, Limit: 100, Credits: 8},
		{Op: OpCredit, Seq: 5, Credits: 2},
		{Op: OpBeginTx, Seq: 6},
		{Op: OpTxUpdate, Seq: 7, TxID: 3, TxKind: TxPut, Table: "t0", Key: 9, Body: []byte("x")},
		{Op: OpTxUpdate, Seq: 8, TxID: 3, TxKind: TxModify, Table: "t0", Key: 9, Off: 4, Body: []byte("yy")},
		{Op: OpTxCommit, Seq: 9, TxID: 3},
		{Op: OpTxAbort, Seq: 10, TxID: 4},
		{Op: OpStats, Seq: 11},
		{Op: OpOK, Seq: 12, Value: 77},
		{Op: OpErr, Seq: 13, Code: CodeBackpressure, Retryable: true, ErrMsg: "cache pressure"},
		{Op: OpRows, Seq: 14, Final: false, Rows: []Row{{Key: 1, Body: []byte("a")}, {Key: 2, Body: nil}}},
		{Op: OpRows, Seq: 15, Final: true, Rows: nil},
		{Op: OpStatsJSON, Seq: 16, Body: []byte(`{"rows":1}`)},
	}
}

// eq compares messages, treating nil and empty bodies/rows as equal
// (the wire does not distinguish them).
func eq(a, b *Msg) bool {
	na, nb := *a, *b
	if len(na.Body) == 0 {
		na.Body = nil
	}
	if len(nb.Body) == 0 {
		nb.Body = nil
	}
	if len(na.Rows) == 0 {
		na.Rows = nil
	}
	if len(nb.Rows) == 0 {
		nb.Rows = nil
	}
	for i := range na.Rows {
		if len(na.Rows[i].Body) == 0 {
			na.Rows[i].Body = nil
		}
	}
	for i := range nb.Rows {
		if len(nb.Rows[i].Body) == 0 {
			nb.Rows[i].Body = nil
		}
	}
	return reflect.DeepEqual(na, nb)
}

func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		payload, err := AppendPayload(nil, m)
		if err != nil {
			t.Fatalf("op %d: encode: %v", m.Op, err)
		}
		var got Msg
		if err := DecodePayload(payload, &got); err != nil {
			t.Fatalf("op %d: decode: %v", m.Op, err)
		}
		if !eq(m, &got) {
			t.Fatalf("op %d: round trip changed the message:\n in: %+v\nout: %+v", m.Op, m, got)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var wbuf []byte
	var err error
	msgs := sampleMsgs()
	for _, m := range msgs {
		if wbuf, err = WriteFrame(&buf, wbuf, m); err != nil {
			t.Fatalf("op %d: write: %v", m.Op, err)
		}
	}
	var rbuf []byte
	for _, want := range msgs {
		var got Msg
		if rbuf, err = ReadFrame(&buf, rbuf, &got); err != nil {
			t.Fatalf("op %d: read: %v", want.Op, err)
		}
		// ReadFrame reuses rbuf across frames; compare before the next read.
		if !eq(want, &got) {
			t.Fatalf("op %d: frame round trip changed the message:\n in: %+v\nout: %+v", want.Op, want, got)
		}
	}
	if _, err := ReadFrame(&buf, rbuf, &Msg{}); err != io.EOF {
		t.Fatalf("read past end: err = %v, want io.EOF", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := [][]byte{
		nil,                                      // empty payload
		{0},                                      // unknown op, short
		{99, 0, 0, 0, 0},                         // unknown op, full seq
		{byte(OpPut), 0, 0, 0},                   // truncated seq
		{byte(OpDelete), 0, 0, 0, 0, 0xFF, 0xFF}, // table length runs past payload
	}
	// Every valid sample, truncated at every length, must error not panic.
	for _, m := range sampleMsgs() {
		payload, err := AppendPayload(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			cases = append(cases, payload[:cut])
		}
		// And with trailing garbage.
		cases = append(cases, append(append([]byte(nil), payload...), 0xAB))
	}
	for i, p := range cases {
		var m Msg
		if err := DecodePayload(p, &m); err == nil {
			t.Fatalf("case %d (% x): malformed payload decoded cleanly as %+v", i, p, m)
		}
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil, &Msg{}); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzDecodeFrame is the server's first line of defense: no client
// bytes, however adversarial, may panic the decoder or make it
// allocate past MaxFrame.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range sampleMsgs() {
		payload, err := AppendPayload(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(OpRows), 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0x7F})
	var rf RowsFrame
	rf.Reset(9)
	rf.Append(3, []byte("row"))
	rf.Append(4, nil)
	frame, err := rf.Finish(true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[4:])
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		if err := DecodePayload(data, &m); err != nil {
			return
		}
		// A payload that decodes must re-encode to the identical bytes:
		// the format has exactly one wire form per message.
		re, err := AppendPayload(nil, &m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: % x\nout: % x", data, re)
		}
	})
}

// TestRowsFrameCanonical checks that RowsFrame, which the server uses to
// encode scan rows in place, produces exactly WriteFrame's bytes for the
// same rows, and that they decode back to those rows: random row sets,
// an empty final frame, empty bodies, and a frame just under the
// server's MaxFrame/2 cut.
func TestRowsFrameCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randRows := func(n, maxBody int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i].Key = rng.Uint64()
			if b := rng.Intn(maxBody + 1); b > 0 {
				rows[i].Body = make([]byte, b)
				rng.Read(rows[i].Body)
			}
		}
		return rows
	}
	cases := [][]Row{nil, {{Key: 1}}, {{Key: 2, Body: []byte{}}, {Key: 3}}}
	for i := 0; i < 200; i++ {
		cases = append(cases, randRows(rng.Intn(300), rng.Intn(256)))
	}
	// One row short of the MaxFrame/2 cut: 12 bytes of key and length
	// per row, so 4096 rows of 116-byte bodies carry 512 KiB exactly.
	big := randRows(4095, 0)
	for i := range big {
		big[i].Body = make([]byte, 116)
	}
	cases = append(cases, big)

	var rf RowsFrame
	var wbuf []byte
	for i, rows := range cases {
		for _, final := range []bool{false, true} {
			seq := rng.Uint32()
			rf.Reset(seq)
			for _, r := range rows {
				rf.Append(r.Key, r.Body)
			}
			got, err := rf.Finish(final)
			if err != nil {
				t.Fatalf("case %d: finish: %v", i, err)
			}
			if rf.Rows() != len(rows) {
				t.Fatalf("case %d: Rows() = %d, want %d", i, rf.Rows(), len(rows))
			}
			want := &Msg{Op: OpRows, Seq: seq, Final: final, Rows: rows}
			var buf bytes.Buffer
			if wbuf, err = WriteFrame(&buf, wbuf, want); err != nil {
				t.Fatalf("case %d: WriteFrame: %v", i, err)
			}
			if !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("case %d (final=%v, %d rows): RowsFrame bytes differ from WriteFrame", i, final, len(rows))
			}
			if rowBytes := len(got) - rowsHeader; rf.RowBytes() != rowBytes {
				t.Fatalf("case %d: RowBytes() = %d, want %d", i, rf.RowBytes(), rowBytes)
			}
			var m Msg
			if err := DecodePayload(got[4:], &m); err != nil {
				t.Fatalf("case %d: decode: %v", i, err)
			}
			if !eq(want, &m) {
				t.Fatalf("case %d: decode changed the frame:\n in: %+v\nout: %+v", i, want, m)
			}
			re, err := AppendPayload(nil, &m)
			if err != nil || !bytes.Equal(re, got[4:]) {
				t.Fatalf("case %d: re-encode differs (err %v)", i, err)
			}
		}
	}
	if n := len(big) * (12 + 116); n >= MaxFrame/2 {
		t.Fatalf("near-cut case carries %d row bytes, want just under %d", n, MaxFrame/2)
	}
}

// TestRowsFrameTooLarge checks that a frame past MaxFrame is refused,
// as WriteFrame refuses it.
func TestRowsFrameTooLarge(t *testing.T) {
	var rf RowsFrame
	rf.Reset(1)
	rf.Append(1, make([]byte, MaxFrame))
	if _, err := rf.Finish(true); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}
