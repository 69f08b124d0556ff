// Package cluster turns N independent cfdserve shard nodes into one
// horizontally scaled violation-detection service. Each shard runs the
// ordinary single-node stack — violation.Engine plus its write-ahead-logged
// Store — over a slice of the relation; a stateless coordinator (cfdserve
// -coordinator) routes tuple writes to the owning shard by partition key,
// scatter-gathers the read endpoints, merging shard results
// deterministically, and fans rule swaps out to every shard with a
// two-phase fingerprint CAS so that a mixed rule set is never observable.
//
// # Why hash partitioning is exact
//
// Every rule the engine serves groups tuples by the values of the rule's
// LHS attributes, and a violating set is always a union of whole groups
// (internal/core.GroupIndex marks the entire group bad — for a variable rule
// when two groups members disagree on the RHS, for a constant rule when any
// member misses the RHS constant). All members of a group agree on the
// rule's LHS values by construction. Therefore, when the partition key is a
// subset of every served rule's LHS, all members of any group agree on the
// key, hash to the same shard, and each shard detects exactly the
// violations among its tuples: the union of per-shard reports equals the
// single-node report, tuple for tuple. Partitioner.Check enforces the
// containment for every rule — constant and variable alike — and rejects
// rule sets the cluster cannot serve exactly.
//
// # Consistency and failure semantics
//
// The coordinator assigns tuple ids from one global counter (recovered at
// boot as the maximum next_id across shards) and pins them on the owning
// shard, so ids — and with them every violation report — are identical to a
// single node fed the same operations. A tuple's partition-key values fix
// its shard, so an id lives on that one shard from its insert to its
// delete: an update that would change them is refused (409 key_change)
// rather than moved. Writes are atomic per shard (one engine batch, one WAL
// record); a multi-shard insert is applied shard by shard and rolled back
// on failure, but is not atomic under a coordinator crash. Reads that bear
// on correctness fail closed: if any shard cannot answer, the scatter
// returns ErrUnavailable rather than a silently partial result. Only a
// second coordinator over the same shards (unsupported: ids are assigned
// from one process's counter) can place one id twice, and merged reads then
// list it twice. Aggregated health never fails — it reports
// per-shard status and degrades the cluster status instead. A shard that
// fails repeatedly is marked unhealthy by its client's circuit breaker and
// is probed again after a cooldown, so a dead node costs one fast error
// per scatter, not a timeout.
//
// # Wire documents
//
// docs.go is the one Go definition of the /v1 response documents: cfdserve's
// node mode encodes them, ShardClient decodes them, and the coordinator
// re-encodes what Cluster returns — Cluster's methods are the coordinator's
// answers to the shared HTTP handlers, already in wire form.
package cluster
