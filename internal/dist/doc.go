// Package dist promotes the single-process campaign engine to a
// coordinator/worker service: a coordinator keeps one queue of campaign
// points that every licensed slot of every live worker node pulls from,
// the workers run points through the unchanged flow/campaign machinery,
// and every completed result lands in a shared, WAL-backed network
// result store — the paper's Fig. 11 METRICS architecture (wrappers
// feeding a central server) applied to the orchestration layer itself.
// The store is a journal.Keyed behind HTTP and a worker's cache reaches
// it as a campaign.Tier, which is also how a local campaign reaches its
// journal: a rerun over the store's WAL and a resumed local sweep are
// the same L1-miss-then-tier-hit.
//
// The determinism contract survives distribution by construction: a
// flow run is a pure function of its point, results are addressed by
// content key, and a worker answers a point only once the store holds
// its entry, with that entry in the answer. The coordinator assembles
// its output from those answers and never talks to the store — so a
// campaign run on any node count, with any interleaving and any requeue
// after a failed dispatch, produces byte-identical results to the
// single-node reference.
package dist
