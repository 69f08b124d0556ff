package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/cfd"
	"repro/dataset"
	"repro/violation"
)

// The serving recipe every workload shares: rules are mined by cfdserve from
// a clean head sample, the served data is the noisy first rows of the same
// Tax instance, and -support/-maxlhs double as the remine parameters.
const (
	serveSupport = 60
	serveMaxLHS  = 2
	noiseRate    = 0.02
	taxCF        = 0.7
)

// miners are the paper's three algorithms, in the order every mining round
// and the traced replay run them.
var miners = []string{"cfdminer", "ctane", "fastcfd"}

// spec is one workload: a Tax instance, how it is mined, how it is served,
// and the shape of one round of its fixed script. Rounds are identical —
// every round leaves the program in the state it found it — so round times
// are samples of one distribution and the median is meaningful.
type spec struct {
	name string
	mine bool // end to end drives cfddiscover (true) or cfdserve (false)

	rows    int // DBSIZE: rows of the mined CSV
	arity   int // ARITY
	payload int // further rows of the same instance, used as insert payloads

	// Mining input: the clean CSV at this support threshold (mining
	// workloads only; a serving workload mines its sample, see serveSupport).
	support int

	// Serving input: clean head sample -> rules, noisy first serveRows -> data.
	sampleRows int
	serveRows  int

	// serve-ingest round: batches x batchSize inserts, SIGKILL + restart,
	// the same rows deleted again, then triples x (POST, PUT, DELETE).
	batches, batchSize, triples int
	// serve-mixed round: writes x (POST one tuple, poll ?since=), a full
	// report every fullEvery-th write, pages of 1000 tuples, per-tuple
	// violation reads, ruleCycles x (suspects, remine, PUT rules A), and one
	// batch deleting the written tuples.
	writes, fullEvery, pages, pointReads, ruleCycles int

	// roundCost is the measured wall time of one round at the commit that
	// introduced the benchmark, on the 2-vCPU reference box. It only converts
	// -seconds into a round count; it is frozen, not re-tuned per commit.
	roundCost float64
}

// specs returns the four workloads at the given scale. "tiny" keeps the
// structure and shrinks every count so the whole suite runs in seconds (the
// smoke test); its numbers mean nothing.
func specs(scale string) ([]spec, error) {
	switch scale {
	case "full":
		return []spec{
			{name: "mine-tall", mine: true, rows: 100000, arity: 7, payload: 2560, support: 500,
				sampleRows: 2000, serveRows: 20000, roundCost: 2.5},
			{name: "mine-wide", mine: true, rows: 4000, arity: 11, payload: 2560, support: 30,
				sampleRows: 2000, serveRows: 4000, roundCost: 2.55},
			{name: "serve-ingest", rows: 40000, arity: 7, payload: 15360,
				sampleRows: 2000, serveRows: 40000, batches: 60, batchSize: 256, triples: 600, roundCost: 2.9},
			{name: "serve-mixed", rows: 30000, arity: 7, payload: 2560,
				sampleRows: 2000, serveRows: 30000, writes: 600, fullEvery: 15, pages: 50, pointReads: 500, ruleCycles: 1, roundCost: 2.45},
		}, nil
	case "tiny":
		return []spec{
			{name: "mine-tall", mine: true, rows: 3000, arity: 7, payload: 64, support: 30,
				sampleRows: 500, serveRows: 1000, roundCost: 0},
			{name: "mine-wide", mine: true, rows: 600, arity: 9, payload: 64, support: 12,
				sampleRows: 500, serveRows: 600, roundCost: 0},
			{name: "serve-ingest", rows: 2000, arity: 7, payload: 64,
				sampleRows: 500, serveRows: 2000, batches: 2, batchSize: 16, triples: 5, roundCost: 0},
			{name: "serve-mixed", rows: 1500, arity: 7, payload: 64,
				sampleRows: 500, serveRows: 1500, writes: 20, fullEvery: 5, pages: 2, pointReads: 10, ruleCycles: 1, roundCost: 0},
		}, nil
	}
	return nil, fmt.Errorf("unknown -scale %q (full or tiny)", scale)
}

// rounds converts the -seconds budget into this workload's fixed round
// count. Tiny specs (roundCost 0) always run two.
func (s spec) rounds(seconds float64) int {
	if s.roundCost == 0 {
		return 2
	}
	return max(3, int(math.Round(seconds/s.roundCost)))
}

// inputs is everything generated from (spec, seed): the relation and, once
// written, the files the programs read. The programs only ever see the files
// and the requests.
type inputs struct {
	spec    spec
	seed    int64
	clean   *cfd.Relation // the first spec.rows rows, permuted: the mining input
	sample  *cfd.Relation // unpermuted clean head: what cfdserve mines its rules from
	data    *cfd.Relation // noisy first serveRows rows of clean: what cfdserve loads
	payload [][]string    // the rows after spec.rows, permuted: insert payloads

	mineCSV, sampleCSV, dataCSV string // set by write
}

// taxSeed seeds the Tax generator itself, for every workload and every
// -seed. What -seed varies is which rows come in what order, where the noise
// lands, the payload order and the ids the script reads — not the instance's
// value distribution. With Tax reseeded per run the size of the mined cover,
// and with it every per-rule cost in the engine, moved by several percent
// from seed to seed, more than a regression bound; a row permutation keeps
// the work (and the cover, which is checked for every seed) the same.
const taxSeed = 1

func generate(s spec, seed int64) (*inputs, error) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: s.rows + s.payload, Arity: s.arity, CF: taxCF, Seed: taxSeed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: s, seed: seed, sample: rel.Head(s.sampleRows)}
	in.clean = cfd.MustRelation(rel.Attributes()...)
	for _, i := range rng.Perm(s.rows) {
		if err := in.clean.Append(rel.Row(i)...); err != nil {
			return nil, err
		}
	}
	in.data, _ = dataset.InjectNoise(in.clean.Head(s.serveRows), noiseRate, seed)
	for _, i := range rng.Perm(s.payload) {
		in.payload = append(in.payload, append([]string(nil), rel.Row(s.rows+i)...))
	}
	return in, nil
}

// write saves the files a run needs into dir: the mining CSV, the serving
// pair, or both (the traced replay pushes the instance through every layer).
func (in *inputs) write(dir string, mining, serving bool) error {
	if mining {
		in.mineCSV = filepath.Join(dir, "mine.csv")
		if err := dataset.SaveCSVFile(in.mineCSV, in.clean); err != nil {
			return err
		}
	}
	if serving {
		in.sampleCSV = filepath.Join(dir, "sample.csv")
		in.dataCSV = filepath.Join(dir, "data.csv")
		if err := dataset.SaveCSVFile(in.sampleCSV, in.sample); err != nil {
			return err
		}
		if err := dataset.SaveCSVFile(in.dataCSV, in.data); err != nil {
			return err
		}
	}
	return nil
}

// step is one entry of a serve script. A request step is one timed HTTP
// request; the two untimed kinds are "epoch" (read the server's epoch so
// ?since= polls can name it) and "restart" (SIGKILL, restart, compare reads).
type step struct {
	Kind   string         `json:"kind"` // metric kind of a request, or "epoch" / "restart"
	Method string         `json:"method,omitempty"`
	Path   string         `json:"path,omitempty"`
	Body   []byte         `json:"body,omitempty"`
	Since  bool           `json:"since,omitempty"` // append the epoch one commit back to Path
	Ops    []violation.Op `json:"ops,omitempty"`   // what the oracle applies for this request
	IDs    []int          `json:"ids,omitempty"`   // ids the response must assign
}

// deleteOps is the batch that deletes the given tuples.
func deleteOps(ids []int) []violation.Op {
	ops := make([]violation.Op, len(ids))
	for i, id := range ids {
		ops[i] = violation.Op{Kind: violation.OpDelete, ID: id}
	}
	return ops
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain slices, maps and violation.Op are ever passed
	}
	return b
}

// script builds the fixed, seeded op script of a serve workload: rounds
// lists of steps with every request body pre-encoded. Tuple ids are assigned
// sequentially and never reused, so the ids the server will hand out are
// known in advance and every response can be checked. rulesA is the rule
// file PUT back at the end of each serve-mixed rule cycle.
func (in *inputs) script(rounds int, rulesA string) [][]step {
	s := in.spec
	rng := rand.New(rand.NewSource(in.seed))
	next := s.serveRows // the id the next insert gets
	insert := func(kind string, row []string) step {
		st := step{Kind: kind, Method: "POST", Path: "/v1/tuples",
			Body: mustJSON(map[string]any{"values": row}),
			Ops:  []violation.Op{{Kind: violation.OpInsert, Values: row}}, IDs: []int{next}}
		next++
		return st
	}
	batch := func(kind string, ops []violation.Op, ids []int) step {
		return step{Kind: kind, Method: "POST", Path: "/v1/batch",
			Body: mustJSON(map[string]any{"ops": ops}), Ops: ops, IDs: ids}
	}
	get := func(kind, path string) step { return step{Kind: kind, Method: "GET", Path: path} }

	out := make([][]step, rounds)
	for r := range out {
		var steps []step
		if s.batches > 0 { // serve-ingest
			var batchIDs [][]int
			for b := 0; b < s.batches; b++ {
				ops := make([]violation.Op, s.batchSize)
				ids := make([]int, s.batchSize)
				for i := range ops {
					ops[i] = violation.Op{Kind: violation.OpInsert, Values: in.payload[(b*s.batchSize+i)%len(in.payload)]}
					ids[i] = next
					next++
				}
				steps = append(steps, batch("batch_insert", ops, ids))
				batchIDs = append(batchIDs, ids)
			}
			steps = append(steps, step{Kind: "restart"})
			for _, ids := range batchIDs {
				steps = append(steps, batch("batch_delete", deleteOps(ids), nil))
			}
			for p := 0; p < s.triples; p++ {
				row, other := in.payload[p%len(in.payload)], in.payload[(p+1)%len(in.payload)]
				ins := insert("point_insert", row)
				id := strconv.Itoa(ins.IDs[0])
				steps = append(steps, ins,
					step{Kind: "point_update", Method: "PUT", Path: "/v1/tuples/" + id,
						Body: mustJSON(map[string]any{"values": other}),
						Ops:  []violation.Op{{Kind: violation.OpUpdate, ID: ins.IDs[0], Values: other}}},
					step{Kind: "point_delete", Method: "DELETE", Path: "/v1/tuples/" + id,
						Ops: deleteOps(ins.IDs)})
			}
		} else { // serve-mixed
			steps = append(steps, step{Kind: "epoch"})
			var written []int
			for w := 0; w < s.writes; w++ {
				ins := insert("point_insert", in.payload[w%len(in.payload)])
				written = append(written, ins.IDs[0])
				steps = append(steps, ins, step{Kind: "delta_poll", Method: "GET", Path: "/v1/violations?since=", Since: true})
				if (w+1)%s.fullEvery == 0 {
					steps = append(steps, get("full_read", "/v1/violations"))
				}
			}
			for p := 0; p < s.pages; p++ {
				steps = append(steps, get("tuples_page", "/v1/tuples?limit=1000&cursor="+strconv.Itoa(p*1000%s.serveRows)))
			}
			for v := 0; v < s.pointReads; v++ {
				steps = append(steps, get("point_read", "/v1/tuples/"+strconv.Itoa(rng.Intn(s.serveRows))+"/violations"))
			}
			for c := 0; c < s.ruleCycles; c++ {
				steps = append(steps,
					get("suspects", "/v1/suspects?limit=100"),
					step{Kind: "remine", Method: "POST", Path: "/v1/rules/remine?wait=1"},
					step{Kind: "swap", Method: "PUT", Path: "/v1/rules", Body: []byte(rulesA)})
			}
			steps = append(steps, batch("batch_delete", deleteOps(written), nil))
		}
		out[r] = steps
	}
	return out
}

// hashInputs digests the generated files and the op script, so two runs can
// be shown to have measured the same inputs.
func hashInputs(files []string, script [][]step) (string, error) {
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(f), len(data))
		h.Write(data)
	}
	if script != nil {
		h.Write(mustJSON(script))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
