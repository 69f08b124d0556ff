package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
)

// Violations scatter-gathers the full report from every shard and merges
// them deterministically: violations in rule-set order with ascending tuple
// ids, dirty the sorted union — exactly the single-node report, with the
// per-shard Epochs in place of the single epoch. It fails closed: any shard
// unable to answer yields an error rather than a silently partial report.
func (c *Cluster) Violations(ctx context.Context) (ViolationsDoc, error) {
	docs := make([]ViolationsDoc, len(c.shards))
	if err := c.scatter("violations", func(i int, s *ShardClient) error {
		var err error
		docs[i], err = s.Violations(ctx)
		return err
	}); err != nil {
		return ViolationsDoc{}, err
	}
	merged, err := c.merge(docs)
	if err == nil {
		return merged, nil
	}
	// A rule string the cache does not know: the fleet's rules changed out
	// of band (not through this coordinator). Refresh once and retry.
	if err := c.refreshRules(ctx); err != nil {
		return ViolationsDoc{}, err
	}
	if merged, err = c.merge(docs); err != nil {
		return ViolationsDoc{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return merged, nil
}

// Changes refuses delta reads: each shard commits on its own WAL, so the
// fleet has no one epoch a delta could be relative to.
func (c *Cluster) Changes(context.Context, uint64) (ChangesDoc, error) {
	return ChangesDoc{}, coordErr(http.StatusBadRequest, "bad_request",
		"delta reads (?since=) are not served by the coordinator; read the full report or each shard's /v1/violations/stream")
}

// merge folds per-shard reports into one, in the cached rule order. Tuple
// sets of the same rule are disjoint across shards (each id lives on
// exactly one shard from its insert to its delete), so unions are
// concatenate-and-sort.
func (c *Cluster) merge(docs []ViolationsDoc) (ViolationsDoc, error) {
	c.mu.Lock()
	order := c.order
	c.mu.Unlock()
	known := make(map[string]int, len(order))
	for i, r := range order {
		known[r] = i
	}
	perRule := make([][]int, len(order))
	out := ViolationsDoc{Epochs: make([]uint64, len(docs)), Dirty: []int{}, Violations: []RuleTuples{}}
	for i, doc := range docs {
		if doc.Epoch != nil {
			out.Epochs[i] = *doc.Epoch
		}
		for _, v := range doc.Violations {
			ri, ok := known[v.Rule]
			if !ok {
				return ViolationsDoc{}, fmt.Errorf("shard %s reports violations of rule %s, which the coordinator does not serve", c.shards[i].URL(), v.Rule)
			}
			perRule[ri] = append(perRule[ri], v.Tuples...)
		}
		out.Dirty = append(out.Dirty, doc.Dirty...)
	}
	for ri, tuples := range perRule {
		if len(tuples) == 0 {
			continue
		}
		sort.Ints(tuples)
		out.Violations = append(out.Violations, RuleTuples{Rule: order[ri], Tuples: tuples})
	}
	sort.Ints(out.Dirty)
	out.RulesChecked = len(order)
	return out, nil
}

// Suspects scatter-gathers the repair view. Suspect analysis is group-local
// (violation.Engine.Suspects reads each rule's LHS groups off the shard's
// live indexes), and groups are intact within their shard, so the sorted
// union equals the single-node suspect list.
func (c *Cluster) Suspects(ctx context.Context) ([]int, error) {
	docs := make([]SuspectsDoc, len(c.shards))
	if err := c.scatter("suspects", func(i int, s *ShardClient) error {
		var err error
		docs[i], err = s.Suspects(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	out := []int{}
	for _, doc := range docs {
		out = append(out, doc.Suspects...)
	}
	sort.Ints(out)
	return out, nil
}

// Tuples serves one page of the fleet's live tuples in ascending global id
// order. The limit and cursor are propagated to every shard: each shard
// returns its own first `limit` tuples at or past the cursor, which is a
// superset of the global first `limit`, and the merge keeps the smallest
// ids. Like the single node, the cursor is the id to resume from, so pages
// stay correct under concurrent mutations.
func (c *Cluster) Tuples(ctx context.Context, cursor, limit int) (TuplesDoc, error) {
	docs := make([]TuplesDoc, len(c.shards))
	if err := c.scatter("tuples", func(i int, s *ShardClient) error {
		var err error
		docs[i], err = s.Tuples(ctx, cursor, limit)
		return err
	}); err != nil {
		return TuplesDoc{}, err
	}
	// The single node's next_cursor is the id of the next LIVE tuple (not
	// last+1), so the merged cursor must be too: the smallest live id beyond
	// this page, which is either the head of the truncated remainder or some
	// shard's own next cursor.
	page := TuplesDoc{Tuples: []TupleDoc{}}
	next := -1
	consider := func(id int) {
		if next < 0 || id < next {
			next = id
		}
	}
	for _, doc := range docs {
		page.Total += doc.Total
		page.Tuples = append(page.Tuples, doc.Tuples...)
		if doc.NextCursor != "" {
			v, err := strconv.Atoi(doc.NextCursor)
			if err != nil {
				return TuplesDoc{}, fmt.Errorf("%w: shard returned non-numeric cursor %q", ErrUnavailable, doc.NextCursor)
			}
			consider(v)
		}
	}
	sort.Slice(page.Tuples, func(a, b int) bool { return page.Tuples[a].ID < page.Tuples[b].ID })
	if limit > 0 && len(page.Tuples) > limit {
		consider(page.Tuples[limit].ID)
		page.Tuples = page.Tuples[:limit]
	}
	if next >= 0 {
		page.NextCursor = strconv.Itoa(next)
	}
	return page, nil
}
