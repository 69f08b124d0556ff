package cluster

import (
	"reflect"
	"strings"
	"testing"
)

func epoch(e uint64) *uint64 { return &e }

func mergeCluster(order ...string) *Cluster {
	return &Cluster{
		order: order,
		shards: []*ShardClient{
			NewShardClient("http://shard0", "0", 0, nil),
			NewShardClient("http://shard1", "1", 0, nil),
		},
	}
}

func TestMergeDeterministic(t *testing.T) {
	c := mergeCluster("r1", "r2", "r3")
	docs := []ViolationsDoc{
		{
			Epoch: epoch(7),
			// Shard order must not matter for the merged rule order: this
			// shard reports r2 before r1.
			Violations: []RuleTuples{{Rule: "r2", Tuples: []int{9, 3}}, {Rule: "r1", Tuples: []int{5}}},
			Dirty:      []int{9, 3, 5},
		},
		{
			Epoch:      epoch(11),
			Violations: []RuleTuples{{Rule: "r1", Tuples: []int{2, 8}}},
			Dirty:      []int{2, 8},
		},
	}
	got, err := c.merge(docs)
	if err != nil {
		t.Fatal(err)
	}
	want := ViolationsDoc{
		Epochs: []uint64{7, 11},
		Violations: []RuleTuples{
			{Rule: "r1", Tuples: []int{2, 5, 8}},
			{Rule: "r2", Tuples: []int{3, 9}},
		},
		Dirty:        []int{2, 3, 5, 8, 9},
		RulesChecked: 3,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %+v, want %+v", got, want)
	}
}

func TestMergeEmpty(t *testing.T) {
	c := mergeCluster("r1")
	got, err := c.merge([]ViolationsDoc{{Epoch: epoch(1)}, {Epoch: epoch(2)}})
	if err != nil {
		t.Fatal(err)
	}
	// Both serialise as [] (not null), like the single-node response.
	if got.Violations == nil || len(got.Violations) != 0 {
		t.Fatalf("clean shards must merge to no violations, got %#v", got.Violations)
	}
	if got.Dirty == nil || len(got.Dirty) != 0 {
		t.Fatalf("dirty = %#v, want empty non-nil", got.Dirty)
	}
	if got.RulesChecked != 1 {
		t.Fatalf("rules_checked = %d", got.RulesChecked)
	}
}

func TestMergeUnknownRule(t *testing.T) {
	c := mergeCluster("r1")
	_, err := c.merge([]ViolationsDoc{
		{},
		{Violations: []RuleTuples{{Rule: "rogue", Tuples: []int{1}}}},
	})
	if err == nil || !strings.Contains(err.Error(), "rogue") || !strings.Contains(err.Error(), "shard1") {
		t.Fatalf("unknown rule must name the rule and the shard, got %v", err)
	}
}
