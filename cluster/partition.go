package cluster

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/rules"
)

// Partitioner routes tuples to shards by hashing the values of a fixed
// subset of the schema — the partition key. The key is chosen once, when
// the cluster is formed, and every rule set the cluster serves must keep
// its rules' LHS a superset of the key (see Check): that containment is
// what makes per-shard violation detection exact.
type Partitioner struct {
	schema []string
	key    []string
	keyPos []int // positions of the key attributes in the schema
}

// NewPartitioner builds a partitioner over the given schema routing on the
// given key attributes. An empty key is legal and routes every tuple to
// shard 0 — the degenerate single-shard placement, still exact. Key
// attributes must exist in the schema; duplicates are rejected.
func NewPartitioner(schema, key []string) (*Partitioner, error) {
	pos := make(map[string]int, len(schema))
	for i, name := range schema {
		pos[name] = i
	}
	p := &Partitioner{schema: append([]string(nil), schema...)}
	seen := make(map[string]bool, len(key))
	for _, name := range key {
		i, ok := pos[name]
		if !ok {
			return nil, fmt.Errorf("cluster: partition key attribute %q is not in the schema", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: partition key attribute %q duplicated", name)
		}
		seen[name] = true
		p.key = append(p.key, name)
		p.keyPos = append(p.keyPos, i)
	}
	return p, nil
}

// DeriveKey returns the widest partition key usable for the given rule set:
// the intersection of every rule's LHS attributes, in schema order. With no
// rules the full schema is returned (any placement is exact when nothing
// groups tuples); if the rules share no LHS attribute the key is empty and
// every tuple routes to shard 0.
func DeriveKey(schema []string, set *rules.Set) []string {
	cfds := set.CFDs()
	if len(cfds) == 0 {
		return append([]string(nil), schema...)
	}
	common := make(map[string]int, len(schema))
	for _, r := range cfds {
		for _, a := range r.LHS {
			common[a]++
		}
	}
	var key []string
	for _, a := range schema {
		if common[a] == len(cfds) {
			key = append(key, a)
		}
	}
	return key
}

// Check reports whether the cluster can serve the rule set exactly under
// this partition key: every rule's LHS — constant and variable rules alike,
// since violating sets are whole LHS groups either way — must contain every
// key attribute. The error names the first offending rule.
func (p *Partitioner) Check(set *rules.Set) error {
	for _, r := range set.CFDs() {
		lhs := make(map[string]bool, len(r.LHS))
		for _, a := range r.LHS {
			lhs[a] = true
		}
		for _, a := range p.key {
			if !lhs[a] {
				return fmt.Errorf("cluster: rule %s does not contain partition key attribute %q in its LHS; the cluster partitioned by [%s] cannot serve it exactly",
					r, a, strings.Join(p.key, ", "))
			}
		}
	}
	return nil
}

// Key returns the partition key attributes in schema order.
func (p *Partitioner) Key() []string { return p.key }

// Schema returns the schema the partitioner was built over.
func (p *Partitioner) Schema() []string { return p.schema }

// sameKey reports whether two tuples (values in schema order) agree on every
// partition key attribute, and so are placed on one shard whatever the fleet.
func (p *Partitioner) sameKey(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, i := range p.keyPos {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Route returns the shard (in [0, shards)) owning a tuple with the given
// values (in schema order). The hash is FNV-1a over the length-prefixed key
// values, so it is stable across processes and releases, and placement —
// and therefore every shard's WAL — stays valid as long as the key does
// not change.
func (p *Partitioner) Route(values []string, shards int) int {
	if shards <= 1 || len(p.keyPos) == 0 {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, i := range p.keyPos {
		v := values[i]
		n := len(v)
		for b := 0; b < 8; b++ {
			buf[b] = byte(n >> (8 * b))
		}
		h.Write(buf[:])
		h.Write([]byte(v))
	}
	return int(h.Sum64() % uint64(shards))
}
