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

// FaultDisk is the fault-scheduling disk of persist_fault_test.go, for the
// schedule oracle in the external test package.
type FaultDisk = faultDisk

// NewFaultDisk returns a disk failing the calls plan schedules (schedule).
func NewFaultDisk(plan []byte) *FaultDisk {
	return &faultDisk{plan: schedule(plan), calls: map[string]int{}}
}

// OpenStoreOn is OpenStore over d.
func OpenStoreOn(dir string, opts StoreOptions, d *FaultDisk) (*Store, error) {
	return openStore(dir, opts, d)
}

// Restart starts the next process after a crash: its calls reach the disk.
func (d *faultDisk) Restart() { d.crashed = false }

// Fired lists the faults that have fired, in order.
func (d *faultDisk) Fired() []string { return d.fired }

// Effects counts the writes that landed their whole buffer, the truncations
// that took effect and those a fault refused.
func (d *faultDisk) Effects() (wholeWrites, truncates, refused int) {
	return d.wholeWrites, d.truncates, d.refused
}

// Crashed reports whether the process has crashed since the last Restart.
func (d *faultDisk) Crashed() bool { return d.crashed }

// SetDeltaHistory shrinks the engine's delta ring to n epochs, so a test can
// overflow it in a few commits. Call it before the engine's first commit.
func (e *Engine) SetDeltaHistory(n int) { e.deltas, e.deltaN = make([]*Delta, n), 0 }

// SetMaxPinGap narrows how far past the end of the row table a pin may reach.
func (e *Engine) SetMaxPinGap(n int) { e.maxPinGap = n }

// SetMaxID narrows the largest id an insert may take, pinned or sequential,
// from the 32-bit limit of the index's members.
func (e *Engine) SetMaxID(n uint64) { e.maxID = n }

// UnmarshalWALRecord is the all-encoding/json decode DecodeWALRecord replaced.
func UnmarshalWALRecord(line []byte) (WALRecord, error) {
	var rec walRecord
	err := json.Unmarshal(line, &rec)
	return exportRecord(rec, err)
}
