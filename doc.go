// Package repro is a from-scratch Go reproduction of "Discovering Conditional
// Functional Dependencies" (Fan, Geerts, Li, Xiong; ICDE 2009 / TKDE 2011).
//
// The library is organised as follows:
//
//   - repro/cfd       — the public data model: relations, CFDs, pattern
//     tableaux, satisfaction/violation/support/minimality.
//   - repro/rules     — the first-class rule set (rules.Set): rules with
//     provenance, lazy tableaux/class counts, text and JSON codecs; the
//     currency between discovery and every consumer.
//   - repro/discovery — the streaming discovery engine (Engine.Stream /
//     Engine.Run) over CFDMiner, CTANE, FastCFD, NaiveFast, plus the TANE
//     and FastFD baselines.
//   - repro/dataset   — CSV IO, the synthetic Tax generator (ARITY/DBSIZE/CF)
//     and shape-preserving stand-ins for the UCI data sets.
//   - repro/violation — the concurrent incremental violation-detection
//     engine: the tuples in one columnar dictionary-encoded relation (the
//     same internal/core.Relation the miners read), one packed-key group
//     index per LHS attribute set shared by the rules on it, bulk load plus
//     O(LHS sets) Insert/Delete/Update, atomic
//     ApplyBatch, live rule swaps, copy-on-write epoch snapshots for
//     lock-free consistent reads, and the Store persistence layer (JSONL
//     write-ahead log + compacted snapshots); served over HTTP by
//     cmd/cfdserve. Engine.Suspects / Engine.Repairs read the likely
//     culprits and their corrections off the live indexes.
//   - repro/cleaning  — the batch entry points over one bulk-loaded
//     violation engine (Load, Detect, Suspects, SuggestRepairs) plus
//     ApplyRepairs; detection and the repair rule live in repro/violation.
//   - repro/experiments — regeneration of every figure of the paper's §6.
//
// The root package holds no code. See README.md for a walkthrough and the
// operations guide (`make figures` regenerates the paper's figures through
// cmd/cfdbench), and ARCHITECTURE.md for the package-layer map, the data flow
// from the paper's algorithms to the serving layer, and the snapshot/WAL
// lifecycle.
package repro
