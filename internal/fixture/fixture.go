// Package fixture provides small, fully-known relations used by tests across
// the repository: the cust relation of Fig. 1 of the paper and deterministic
// pseudo-random relations for property-based tests.
package fixture

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/dataset"
	"repro/internal/core"
)

// Cust returns the Fig. 1 cust relation (8 tuples, 7 attributes): the
// encoded form of dataset.Cust.
func Cust() *core.Relation { return dataset.Cust().Encoded() }

// CustNoNM returns the cust relation projected onto CC, AC, PN, STR, CT, ZIP —
// the projection used in Example 9 of the paper.
func CustNoNM() *core.Relation {
	r := Cust()
	keep, err := r.Schema().AttrSetOf("CC", "AC", "PN", "STR", "CT", "ZIP")
	if err != nil {
		panic(err)
	}
	out, err := r.Restrict(keep)
	if err != nil {
		panic(err)
	}
	return out
}

// Random returns a deterministic pseudo-random relation with the given number
// of tuples and per-attribute domain sizes. Attribute names are A0, A1, ...
// and values are small decimal strings, so frequent patterns and FDs occur by
// chance, which is what the property-based tests need.
func Random(seed int64, tuples int, domainSizes []int) *core.Relation {
	names := make([]string, len(domainSizes))
	for i := range names {
		names[i] = "A" + strconv.Itoa(i)
	}
	r := core.NewRelation(core.MustSchema(names...))
	rng := rand.New(rand.NewSource(seed))
	row := make([]string, len(domainSizes))
	for t := 0; t < tuples; t++ {
		for a, d := range domainSizes {
			if d < 1 {
				d = 1
			}
			row[a] = "v" + strconv.Itoa(rng.Intn(d))
		}
		if err := r.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return r
}

// RandomCorrelated returns a deterministic pseudo-random relation in which
// attribute 1 is a function of attribute 0 and attribute 2 depends on
// attribute 1 except for occasional noise, so that non-trivial FDs and CFDs
// are likely to hold. Remaining attributes are independent.
func RandomCorrelated(seed int64, tuples, arity, domain int) *core.Relation {
	if arity < 3 {
		arity = 3
	}
	names := make([]string, arity)
	for i := range names {
		names[i] = "A" + strconv.Itoa(i)
	}
	r := core.NewRelation(core.MustSchema(names...))
	rng := rand.New(rand.NewSource(seed))
	row := make([]string, arity)
	for t := 0; t < tuples; t++ {
		v0 := rng.Intn(domain)
		row[0] = "v" + strconv.Itoa(v0)
		row[1] = "v" + strconv.Itoa((v0*7+3)%domain)
		if rng.Intn(10) == 0 {
			row[2] = "v" + strconv.Itoa(rng.Intn(domain))
		} else {
			row[2] = "v" + strconv.Itoa((v0*3+1)%domain)
		}
		for a := 3; a < arity; a++ {
			row[a] = "v" + strconv.Itoa(rng.Intn(domain))
		}
		if err := r.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return r
}

// Emitted runs a miner — a call of its one emit-only entry point, wrapped in
// mine — to completion and returns the rules it emitted, in emission order.
func Emitted(t testing.TB, mine func(emit func(core.CFD)) error) []core.CFD {
	t.Helper()
	var out []core.CFD
	if err := mine(func(c core.CFD) { out = append(out, c) }); err != nil {
		t.Fatalf("mining: %v", err)
	}
	return out
}

// Cover is Emitted in canonical order: the cover as the miners' tests
// compare it with each other and with the brute-force oracle. A miner emits
// each rule once, so a rule emitted twice fails the test.
func Cover(t testing.TB, mine func(emit func(core.CFD)) error) []core.CFD {
	t.Helper()
	out := Emitted(t, mine)
	core.SortCFDs(out)
	for i := 1; i < len(out); i++ {
		if out[i].Key() == out[i-1].Key() {
			t.Fatalf("rule %s emitted twice", out[i].Key())
		}
	}
	return out
}
