#ifndef DCWS_MIGRATE_SELECTION_H_
#define DCWS_MIGRATE_SELECTION_H_

#include <optional>
#include <string>
#include <vector>

#include "src/graph/ldg.h"

namespace dcws::migrate {

// Algorithm 1 (paper Figure 4): selects the document a home server should
// migrate next, or nullopt when nothing is eligible.
//
//  1. C := all documents in the graph still hosted at the home server.
//  2. Remove well-known entry points.
//  3. Remove documents with hits below T (initially `hit_threshold`,
//     hits within the current statistics window); halve T until C is
//     non-empty.  Once T reaches zero every candidate qualifies.
//  4. Keep documents pointed to by the fewest LinkFrom documents that do
//     NOT reside on the home server (minimizes remote hyperlink updates).
//  5. Among those, pick the one pointing at the fewest LinkTo documents.
//
// Ties after step 5 break on lexicographic name order for determinism.
// `views` come from graph::LocalDocumentGraph::SelectionSnapshot().
std::optional<std::string> SelectDocumentForMigration(
    const std::vector<graph::LocalDocumentGraph::SelectionView>& views,
    uint64_t hit_threshold);

// Adapter from full DocumentRecord snapshots (tests and tools).
std::optional<std::string> SelectDocumentForMigration(
    const std::vector<graph::DocumentRecord>& records,
    const http::ServerAddress& home, uint64_t hit_threshold);

}  // namespace dcws::migrate

#endif  // DCWS_MIGRATE_SELECTION_H_
