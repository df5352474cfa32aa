#ifndef HBOLD_HBOLD_HBOLD_H_
#define HBOLD_HBOLD_HBOLD_H_

/// Umbrella header for the H-BOLD library: include this to get the whole
/// public API (server layer, presentation layer, visual querying, portal
/// crawling, manual insertion, visualization layouts).

#include "cluster/cluster_schema.h"     // IWYU pragma: export
#include "cluster/label_propagation.h"  // IWYU pragma: export
#include "cluster/louvain.h"            // IWYU pragma: export
#include "cluster/modularity.h"         // IWYU pragma: export
#include "endpoint/local_endpoint.h"    // IWYU pragma: export
#include "endpoint/query_batch.h"       // IWYU pragma: export
#include "endpoint/registry.h"          // IWYU pragma: export
#include "endpoint/simulated_endpoint.h"  // IWYU pragma: export
#include "extraction/extractor.h"       // IWYU pragma: export
#include "extraction/scheduler.h"       // IWYU pragma: export
#include "hbold/crawler.h"              // IWYU pragma: export
#include "hbold/effectiveness.h"        // IWYU pragma: export
#include "hbold/exploration_service.h"  // IWYU pragma: export
#include "hbold/fleet.h"                // IWYU pragma: export
#include "hbold/manual_insert.h"        // IWYU pragma: export
#include "hbold/metadata_crawler.h"     // IWYU pragma: export
#include "hbold/presentation.h"         // IWYU pragma: export
#include "hbold/server.h"               // IWYU pragma: export
#include "hbold/visual_query.h"         // IWYU pragma: export
#include "rdf/graph.h"                  // IWYU pragma: export
#include "rdf/ntriples.h"               // IWYU pragma: export
#include "rdf/turtle.h"                 // IWYU pragma: export
#include "schema/schema_summary.h"      // IWYU pragma: export
#include "sparql/executor.h"            // IWYU pragma: export
#include "sparql/query_builder.h"       // IWYU pragma: export
#include "store/database.h"             // IWYU pragma: export
#include "viz/circle_pack.h"            // IWYU pragma: export
#include "viz/edge_bundling.h"          // IWYU pragma: export
#include "viz/layout_cache.h"           // IWYU pragma: export
#include "viz/render.h"                 // IWYU pragma: export
#include "workload/exploration_workload.h"  // IWYU pragma: export
#include "viz/sunburst.h"               // IWYU pragma: export
#include "viz/treemap.h"                // IWYU pragma: export

#endif  // HBOLD_HBOLD_HBOLD_H_
