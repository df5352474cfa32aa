#include "hbold/presentation.h"

#include <algorithm>
#include <map>

#include "cluster/louvain.h"
#include "common/clock.h"
#include "hbold/server.h"
#include "sparql/query_builder.h"

namespace hbold {

PresentationSnapshot PresentationSnapshot::Capture(const store::Database& db) {
  PresentationSnapshot snap;
  const store::Collection* summaries =
      db.FindCollection(kSummariesCollection);
  if (summaries != nullptr) snap.summaries_ = summaries->Snapshot();
  const store::Collection* clusters = db.FindCollection(kClustersCollection);
  if (clusters != nullptr) snap.clusters_ = clusters->Snapshot();
  return snap;
}

namespace {

/// The document in `docs` whose `endpoint_url` is `url`, compared in place.
const Json* FindByUrl(const std::vector<store::DocHandle>& docs,
                      const std::string& url) {
  for (const store::DocHandle& doc : docs) {
    const Json* doc_url = doc->Find("endpoint_url");
    if (doc_url != nullptr && doc_url->is_string() &&
        doc_url->as_string() == url) {
      return doc.get();
    }
  }
  return nullptr;
}

}  // namespace

const Json* PresentationSnapshot::FindSummaryDoc(const std::string& url) const {
  return FindByUrl(summaries_, url);
}

const Json* PresentationSnapshot::FindClusterDoc(const std::string& url) const {
  return FindByUrl(clusters_, url);
}

std::vector<DatasetInfo> PresentationSnapshot::ListDatasets() const {
  std::vector<DatasetInfo> out;
  for (const store::DocHandle& handle : summaries_) {
    const Json& doc = *handle;
    DatasetInfo info;
    info.url = doc.GetString("endpoint_url");
    const Json* nodes = doc.Find("nodes");
    info.classes = nodes != nullptr && nodes->is_array()
                       ? nodes->as_array().size()
                       : 0;
    info.total_instances = static_cast<size_t>(doc.GetInt("total_instances"));
    info.extracted_day = doc.GetInt("extracted_day", -1);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const DatasetInfo& a, const DatasetInfo& b) {
              return a.url < b.url;
            });
  return out;
}

Result<schema::SchemaSummary> PresentationSnapshot::LoadSchemaSummary(
    const std::string& url, double* load_ms) const {
  Stopwatch sw;
  const Json* doc = FindSummaryDoc(url);
  if (doc == nullptr) {
    return Status::NotFound("no schema summary for " + url);
  }
  auto summary = schema::SchemaSummary::FromJson(*doc);
  if (load_ms != nullptr) *load_ms = sw.ElapsedMillis();
  return summary;
}

Result<cluster::ClusterSchema> PresentationSnapshot::LoadClusterSchema(
    const std::string& url, double* load_ms) const {
  Stopwatch sw;
  const Json* doc = FindClusterDoc(url);
  if (doc == nullptr) {
    return Status::NotFound("no cluster schema for " + url);
  }
  auto clusters = cluster::ClusterSchema::FromJson(*doc);
  if (load_ms != nullptr) *load_ms = sw.ElapsedMillis();
  return clusters;
}

std::vector<DatasetInfo> Presentation::ListDatasets() const {
  return Snapshot().ListDatasets();
}

Result<schema::SchemaSummary> Presentation::LoadSchemaSummary(
    const std::string& url, double* load_ms) const {
  return Snapshot().LoadSchemaSummary(url, load_ms);
}

Result<cluster::ClusterSchema> Presentation::LoadClusterSchema(
    const std::string& url, double* load_ms) const {
  return Snapshot().LoadClusterSchema(url, load_ms);
}

Result<cluster::ClusterSchema> Presentation::ComputeClusterSchemaOnTheFly(
    const std::string& url, double* compute_ms) const {
  Stopwatch sw;
  HBOLD_ASSIGN_OR_RETURN(schema::SchemaSummary summary,
                         LoadSchemaSummary(url));
  cluster::UGraph graph = cluster::BuildClassGraph(summary);
  cluster::Partition partition = cluster::Louvain(graph);
  cluster::ClusterSchema clusters =
      cluster::ClusterSchema::FromPartition(summary, partition);
  if (compute_ms != nullptr) *compute_ms = sw.ElapsedMillis();
  return clusters;
}

namespace drilldown {

Result<sparql::ResultTable> SampleInstances(endpoint::SparqlEndpoint* ep,
                                            const std::string& class_iri,
                                            size_t limit) {
  std::string q =
      "SELECT ?instance ?label WHERE {\n"
      "  ?instance a <" +
      sparql::EscapeIri(class_iri) +
      "> .\n"
      "  OPTIONAL { ?instance "
      "<http://www.w3.org/2000/01/rdf-schema#label> ?label . }\n"
      "} ORDER BY ?instance LIMIT " +
      std::to_string(limit);
  HBOLD_ASSIGN_OR_RETURN(endpoint::QueryOutcome outcome, ep->Query(q));
  return outcome.table;
}

Result<sparql::ResultTable> DescribeResource(
    endpoint::SparqlEndpoint* ep, const std::string& resource_iri) {
  std::string q = "SELECT ?p ?o WHERE { <" + sparql::EscapeIri(resource_iri) +
                  "> ?p ?o . } ORDER BY ?p ?o";
  HBOLD_ASSIGN_OR_RETURN(endpoint::QueryOutcome outcome, ep->Query(q));
  return outcome.table;
}

}  // namespace drilldown

void ExplorationSession::FocusClass(size_t node) {
  if (node >= summary_.NodeCount()) return;
  visible_.insert(node);
}

void ExplorationSession::ExpandClass(size_t node) {
  if (visible_.count(node) == 0) return;
  for (size_t neighbor : summary_.Neighbors(node)) {
    visible_.insert(neighbor);
  }
}

void ExplorationSession::ExpandAll() {
  for (size_t i = 0; i < summary_.NodeCount(); ++i) visible_.insert(i);
}

void ExplorationSession::Reset() { visible_.clear(); }

double ExplorationSession::CoveragePercent() const {
  return summary_.CoveragePercent(visible_);
}

std::vector<size_t> ExplorationSession::VisibleNodes() const {
  return {visible_.begin(), visible_.end()};
}

std::vector<viz::ForceEdge> ExplorationSession::VisibleEdges() const {
  std::map<size_t, size_t> remap;
  size_t next = 0;
  for (size_t node : visible_) remap[node] = next++;
  std::vector<viz::ForceEdge> out;
  for (const schema::PropertyArc& arc : summary_.arcs()) {
    auto s = remap.find(arc.src);
    auto d = remap.find(arc.dst);
    if (s == remap.end() || d == remap.end()) continue;
    out.push_back(viz::ForceEdge{s->second, d->second,
                                 static_cast<double>(arc.count)});
  }
  return out;
}

}  // namespace hbold
