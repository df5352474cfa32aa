#include "cluster/cluster_schema.h"

#include <algorithm>
#include <tuple>

namespace hbold::cluster {

UGraph BuildClassGraph(const schema::SchemaSummary& summary) {
  UGraph g(summary.NodeCount());
  for (const schema::PropertyArc& arc : summary.arcs()) {
    if (arc.src == arc.dst) continue;
    g.AddEdge(arc.src, arc.dst, static_cast<double>(arc.count));
  }
  return g;
}

namespace {

/// Every node's primary labeling score under a policy (ties are broken by
/// instance count then IRI so labeling is deterministic). Degrees take one
/// pass over the arcs: in-degree + out-degree, self-loops counting twice,
/// as SchemaSummary::Degree.
std::vector<size_t> LabelScores(const schema::SchemaSummary& summary,
                                LabelPolicy policy) {
  std::vector<size_t> scores(summary.NodeCount(), 0);
  switch (policy) {
    case LabelPolicy::kHighestDegree:
      for (const schema::PropertyArc& arc : summary.arcs()) {
        ++scores[arc.src];
        ++scores[arc.dst];
      }
      break;
    case LabelPolicy::kMostInstances:
      for (size_t i = 0; i < scores.size(); ++i) {
        scores[i] = summary.nodes()[i].instance_count;
      }
      break;
    case LabelPolicy::kMostAttributes:
      for (size_t i = 0; i < scores.size(); ++i) {
        for (const schema::Attribute& a : summary.nodes()[i].attributes) {
          scores[i] += a.count;
        }
      }
      break;
  }
  return scores;
}

}  // namespace

ClusterSchema ClusterSchema::FromPartition(
    const schema::SchemaSummary& summary, const Partition& partition,
    LabelPolicy label_policy) {
  ClusterSchema cs;
  cs.endpoint_url_ = summary.endpoint_url();

  Partition normalized = partition;
  size_t k = NormalizePartition(&normalized);
  cs.clusters_.resize(k);
  cs.cluster_of_ = normalized;

  for (size_t node = 0; node < normalized.size(); ++node) {
    Cluster& cluster = cs.clusters_[normalized[node]];
    cluster.class_nodes.push_back(node);
    cluster.total_instances += summary.nodes()[node].instance_count;
  }

  // Label: by default the local name of the member with the highest degree
  // in the Schema Summary pseudograph (§2.1).
  const std::vector<size_t> scores = LabelScores(summary, label_policy);
  for (Cluster& cluster : cs.clusters_) {
    if (cluster.class_nodes.empty()) continue;
    size_t best = cluster.class_nodes[0];
    for (size_t node : cluster.class_nodes) {
      if (scores[node] > scores[best]) {
        best = node;
      } else if (scores[node] == scores[best]) {
        const auto& a = summary.nodes()[node];
        const auto& b = summary.nodes()[best];
        if (a.instance_count > b.instance_count ||
            (a.instance_count == b.instance_count && a.iri < b.iri)) {
          best = node;
        }
      }
    }
    cluster.label = summary.nodes()[best].label;
  }

  // Aggregate arcs across cluster boundaries: sort by (src, dst), then
  // merge runs, which yields ascending (src, dst) order.
  std::vector<ClusterArc> cut;
  for (const schema::PropertyArc& arc : summary.arcs()) {
    const size_t cs_src = normalized[arc.src];
    const size_t cs_dst = normalized[arc.dst];
    if (cs_src != cs_dst) cut.push_back({cs_src, cs_dst, arc.count, 1});
  }
  std::sort(cut.begin(), cut.end(),
            [](const ClusterArc& a, const ClusterArc& b) {
              return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
            });
  for (const ClusterArc& arc : cut) {
    if (!cs.arcs_.empty() && cs.arcs_.back().src == arc.src &&
        cs.arcs_.back().dst == arc.dst) {
      cs.arcs_.back().weight += arc.weight;
      ++cs.arcs_.back().property_count;
    } else {
      cs.arcs_.push_back(arc);
    }
  }
  return cs;
}

int ClusterSchema::ClusterOf(size_t node) const {
  if (node >= cluster_of_.size()) return -1;
  return static_cast<int>(cluster_of_[node]);
}

Json ClusterSchema::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("endpoint_url", endpoint_url_);
  Json clusters = Json::MakeArray();
  for (const Cluster& c : clusters_) {
    Json cj = Json::MakeObject();
    cj.Set("label", c.label);
    cj.Set("total_instances", c.total_instances);
    Json members = Json::MakeArray();
    for (size_t node : c.class_nodes) members.Append(Json(node));
    cj.Set("classes", std::move(members));
    clusters.Append(std::move(cj));
  }
  j.Set("clusters", std::move(clusters));
  Json arcs = Json::MakeArray();
  for (const ClusterArc& a : arcs_) {
    Json aj = Json::MakeObject();
    aj.Set("src", a.src);
    aj.Set("dst", a.dst);
    aj.Set("weight", a.weight);
    aj.Set("properties", a.property_count);
    arcs.Append(std::move(aj));
  }
  j.Set("arcs", std::move(arcs));
  return j;
}

Result<ClusterSchema> ClusterSchema::FromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("ClusterSchema JSON must be an object");
  }
  ClusterSchema cs;
  cs.endpoint_url_ = j.GetString("endpoint_url");
  const Json* clusters = j.Find("clusters");
  size_t max_node = 0;
  if (clusters != nullptr && clusters->is_array()) {
    for (const Json& cj : clusters->as_array()) {
      Cluster c;
      c.label = cj.GetString("label");
      c.total_instances = static_cast<size_t>(cj.GetInt("total_instances"));
      const Json* members = cj.Find("classes");
      if (members != nullptr && members->is_array()) {
        for (const Json& m : members->as_array()) {
          if (!m.is_number()) continue;
          size_t node = static_cast<size_t>(m.as_int());
          c.class_nodes.push_back(node);
          max_node = std::max(max_node, node);
        }
      }
      cs.clusters_.push_back(std::move(c));
    }
  }
  cs.cluster_of_.assign(max_node + 1, 0);
  for (size_t ci = 0; ci < cs.clusters_.size(); ++ci) {
    for (size_t node : cs.clusters_[ci].class_nodes) {
      cs.cluster_of_[node] = ci;
    }
  }
  const Json* arcs = j.Find("arcs");
  if (arcs != nullptr && arcs->is_array()) {
    for (const Json& aj : arcs->as_array()) {
      ClusterArc a;
      a.src = static_cast<size_t>(aj.GetInt("src"));
      a.dst = static_cast<size_t>(aj.GetInt("dst"));
      a.weight = static_cast<size_t>(aj.GetInt("weight"));
      a.property_count = static_cast<size_t>(aj.GetInt("properties"));
      if (a.src >= cs.clusters_.size() || a.dst >= cs.clusters_.size()) {
        return Status::InvalidArgument("cluster arc endpoint out of range");
      }
      cs.arcs_.push_back(a);
    }
  }
  return cs;
}

}  // namespace hbold::cluster
