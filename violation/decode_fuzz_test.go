package violation_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/cluster"
	"repro/internal/jsonw"
	"repro/violation"
)

// sameOutcome fails unless two decodes of the same bytes agree: both refuse,
// in the same words, or both return the same value.
func sameOutcome(t *testing.T, what string, data []byte, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil), gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s of %q: error %v, encoding/json alone says %v", what, data, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s of %q\n got %+v\nwant %+v", what, data, got, want)
	}
}

// FuzzDecodeOps holds the two decoders that read ops — a POST /v1/batch body
// and a write-ahead-log record — to the encoding/json calls they replaced: for
// any bytes the same ops (nil against empty slices included) and the same
// error, word for word, so the hand-over is invisible and encoding/json stays
// the only author of an error message. ReadOps on the bare array is held to
// the other half of its contract: what it calls plain, json.Unmarshal accepts
// and decodes alike.
func FuzzDecodeOps(f *testing.F) {
	at := 7
	real := []violation.Op{
		{Kind: violation.OpInsert, Values: []string{"01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"}},
		{Kind: violation.OpInsert, Values: []string{`<a&b>`, "é x", "\"q\"\\", "\x00\t\x1f", "\xff\xfe", "💥", ""}, At: &at},
		{Kind: violation.OpUpdate, ID: 3, Values: []string{"x"}},
		{Kind: violation.OpDelete, ID: 0},
		{Kind: "frobnicate"},
	}
	body, err := json.Marshal(cluster.BatchRequest{Ops: real})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add(append([]byte(`{"seq":12,`), body[1:]...))
	f.Add(append(append([]byte(`{"seq":12,`), body[1:]...), '\n'))
	f.Add(body[len(`{"ops":`) : len(body)-1]) // the bare array
	for _, doc := range []string{
		`{"ops":[]}`, `{}`, `{"seq":1}`, `{"ops":null}`, `{"ops":[null]}`, `[]`, ``, `null`,
		`{"seq":3,"rules":{"rules":["([A] -> B, (_ || _))"]}}`,
		`{"seq":3,"rules":{"rules":["not a rule"]}}`,
		`{"seq":3,"ops":[{"op":"delete","id":1}],"rules":{"rules":[]}}`,
		`{"ops":[{"op":"delete"}]}`, `{"ops":[{"op":"update","values":["x"]}]}`,
		`{"ops":[{"op":"delete","id":0,"at":1}]}`, `{"ops":[{"op":"insert","values":["x"],"id":5,"at":9}]}`,
		`{"ops":[{"op":"insert","values":[]}]}`, `{"ops":[{"op":"insert","values":null}]}`,
		`{"OPS":[{"OP":"delete","Id":2}]}`, `{"ops":[{"op":"delete","id":1,"id":2}]}`,
		`{"ops":[{"op":"delete","id":1}],"ops":[]}`, `{"ops":[{"op":"delete","id":1,"extra":true}]}`,
		`{"ops":[{"op":"delete","id":1e2}]}`, `{"ops":[{"op":"delete","id":1.0}]}`, `{"ops":[{"op":"delete","id":01}]}`,
		`{"ops":[{"op":"delete","id":-0}]}`, `{"ops":[{"op":"delete","id":99999999999999999999}]}`,
		`{"ops":[{"op":"insert","at":99999999999,"values":["x"]}]}`, `{"seq":-1}`, `{"seq":18446744073709551616}`,
		`{"ops":[{"op":"delete","id":1},]}`, `{"ops":[{"op":"delete","id":1,}]}`, `{"ops":[{"op":"delete","id":1}`,
		`{"ops":[{"op":"insert","values":["a😀","é\/"]}]}`, `{"ops":[{"op":"insert","values":["open`,
		` {"ops" : [ {"op" : "delete", "id" : 1} ] } `, `{"ops":[{"op":"delete","id":1}]} trailing`,
		`{"ops":[{"op":"delete","id":1}]}{"ops":[]}`, `{"ops":[{"op":"delete","id":"1"}]}`, `{"ops":{"op":"delete"}}`,
		"{\"ops\":[{\"op\":\"insert\",\"values\":[\"\xff\"]}]}", `{"ops":[{"op":"insert","values":["x"]}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gotReq, gotErr := cluster.DecodeBatchRequest(data)
		var wantReq cluster.BatchRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&wantReq)
		sameOutcome(t, "batch body", data, gotReq, gotErr, wantReq, wantErr)

		gotRec, gotErr := violation.DecodeWALRecord(data)
		wantRec, wantErr := violation.UnmarshalWALRecord(data)
		sameOutcome(t, "WAL record", data, gotRec, gotErr, wantRec, wantErr)

		r := jsonw.Read(data)
		if ops := violation.ReadOps(&r); r.Plain() {
			var want []violation.Op
			sameOutcome(t, "ops array", data, ops, nil, want, json.Unmarshal(data, &want))
		}
	})
}
