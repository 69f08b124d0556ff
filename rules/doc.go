// Package rules defines the first-class rule set shared across the whole CFD
// system: discovery produces a *Set, the violation engine and the cleaning
// layer consume one, and cfdserve serves one over HTTP.
//
// A Set is an ordered collection of single-pattern CFDs together with its
// provenance — which algorithm mined it, at what support threshold, from a
// relation of what shape, and how long the run took — and lazily computed
// derived views: the constant/variable class counts and the pattern tableaux
// of §2.3 of the paper (one tableau per embedded FD). The derived views are
// computed on first use and cached; a Set is safe for concurrent reads.
//
// Like the paper's Σ, a Set holds each dependency at most once. Every way of
// building one — New, Of, Parse, Load and the JSON decoder — collapses rules
// with the same canonical key (the normalised rendering, LHS attributes
// sorted by name) and keeps the first in set order, so the fingerprint, Diff
// and every consumer can treat a Set as a set.
//
// Two codecs round-trip a Set:
//
//   - the rule-file text format of cfddiscover -o (one CFD per line in the
//     paper's notation, preceded by a '#' summary comment that carries the
//     provenance), read back by Parse/Load via cfd.ParseAll;
//   - a JSON document with the rules, provenance, class counts and tableaux,
//     served by cfdserve's GET /rules and accepted by its -rules flag.
//
// Parse and Load sniff the format, so every tool that reads rules accepts
// either interchangeably.
package rules
