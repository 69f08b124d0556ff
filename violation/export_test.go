package violation

import "encoding/json"

// WALRecord is a write-ahead-log record as FuzzDecodeOps, which lives in the
// external test package to reach the batch-body decoder in package cluster,
// compares it: the rule set by its JSON.
type WALRecord struct {
	Seq   uint64
	Ops   []Op
	Rules []byte
}

func exportRecord(rec walRecord, err error) (WALRecord, error) {
	out := WALRecord{Seq: rec.Seq, Ops: rec.Ops}
	if rec.Rules != nil && err == nil {
		out.Rules, err = json.Marshal(rec.Rules)
	}
	return out, err
}

// DecodeWALRecord decodes a line of the log as recovery does.
func DecodeWALRecord(line []byte) (WALRecord, error) {
	var rec walRecord
	err := rec.decode(line)
	return exportRecord(rec, err)
}

// UnmarshalWALRecord is the all-encoding/json decode DecodeWALRecord replaced.
func UnmarshalWALRecord(line []byte) (WALRecord, error) {
	var rec walRecord
	err := json.Unmarshal(line, &rec)
	return exportRecord(rec, err)
}
