#include "workload/template_generator.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"

namespace fairsqg {

namespace {

struct SampledEdge {
  NodeId from;
  NodeId to;
  LabelId label;

  bool operator<(const SampledEdge& o) const {
    if (from != o.from) return from < o.from;
    if (to != o.to) return to < o.to;
    return label < o.label;
  }
};

/// One attempt: grow a connected subgraph with `num_edges` edges from `seed`.
bool GrowSubgraph(const Graph& g, Rng* rng, NodeId seed, size_t num_edges,
                  std::vector<NodeId>* nodes, std::set<SampledEdge>* edges) {
  nodes->clear();
  edges->clear();
  nodes->push_back(seed);
  size_t stall = 0;
  while (edges->size() < num_edges && stall < 50) {
    NodeId pivot = (*nodes)[rng->NextBounded(nodes->size())];
    size_t out_deg = g.out_degree(pivot);
    size_t in_deg = g.in_degree(pivot);
    if (out_deg + in_deg == 0) {
      ++stall;
      continue;
    }
    size_t pick = rng->NextBounded(out_deg + in_deg);
    SampledEdge e;
    NodeId other;
    if (pick < out_deg) {
      const AdjEntry& adj = g.OutEdges(pivot)[pick];
      e = {pivot, adj.neighbor, adj.edge_label};
      other = adj.neighbor;
    } else {
      const AdjEntry& adj = g.InEdges(pivot)[pick - out_deg];
      e = {adj.neighbor, pivot, adj.edge_label};
      other = adj.neighbor;
    }
    if (other == pivot || !edges->insert(e).second) {
      ++stall;
      continue;
    }
    stall = 0;
    if (std::find(nodes->begin(), nodes->end(), other) == nodes->end()) {
      nodes->push_back(other);
    }
  }
  return edges->size() == num_edges;
}

}  // namespace

Result<QueryTemplate> GenerateTemplate(const Graph& g, const TemplateSpec& spec) {
  if (spec.output_label == kInvalidLabel) {
    return Status::InvalidArgument("output_label must be set");
  }
  if (spec.num_edge_vars > spec.num_edges) {
    return Status::InvalidArgument("num_edge_vars exceeds num_edges");
  }
  const NodeSet& seeds = g.NodesWithLabel(spec.output_label);
  if (seeds.empty()) {
    return Status::NotFound("no node carries the output label");
  }

  Rng rng(spec.seed);
  for (size_t attempt = 0; attempt < spec.max_attempts; ++attempt) {
    NodeId seed = seeds[rng.NextBounded(seeds.size())];
    std::vector<NodeId> nodes;
    std::set<SampledEdge> edges;
    if (spec.num_edges > 0 &&
        !GrowSubgraph(g, &rng, seed, spec.num_edges, &nodes, &edges)) {
      continue;
    }

    // Choose which sampled edges carry Boolean variables.
    std::vector<SampledEdge> edge_list(edges.begin(), edges.end());
    std::vector<uint64_t> var_edges =
        rng.SampleWithoutReplacement(edge_list.size(), spec.num_edge_vars);
    std::set<uint64_t> var_edge_set(var_edges.begin(), var_edges.end());

    // Candidate (node, attr) pairs for range literals: numeric attributes
    // whose per-label domain has at least two values.
    struct RangeSite {
      size_t node_index;
      AttrId attr;
    };
    std::vector<RangeSite> sites;
    for (size_t i = 0; i < nodes.size(); ++i) {
      LabelId label = g.node_label(nodes[i]);
      for (const AttrEntry& a : g.attrs(nodes[i])) {
        if (!g.attr_value(a).is_numeric()) continue;
        if (g.ActiveDomain(label, a.attr).size() < 2) continue;
        sites.push_back({i, a.attr});
      }
    }
    // Deduplicate sites by (node, attr).
    std::sort(sites.begin(), sites.end(), [](const RangeSite& a, const RangeSite& b) {
      if (a.node_index != b.node_index) return a.node_index < b.node_index;
      return a.attr < b.attr;
    });
    sites.erase(std::unique(sites.begin(), sites.end(),
                            [](const RangeSite& a, const RangeSite& b) {
                              return a.node_index == b.node_index &&
                                     a.attr == b.attr;
                            }),
                sites.end());
    if (sites.size() < spec.num_range_vars) continue;  // Resample.

    std::vector<uint64_t> chosen =
        rng.SampleWithoutReplacement(sites.size(), spec.num_range_vars);

    // Lift to a template.
    QueryTemplate tmpl(g.schema_ptr());
    std::map<NodeId, QNodeId> q_of;
    for (NodeId v : nodes) q_of[v] = tmpl.AddNode(g.node_label(v));
    tmpl.SetOutputNode(q_of[seed]);
    for (size_t i = 0; i < edge_list.size(); ++i) {
      const SampledEdge& e = edge_list[i];
      if (var_edge_set.count(i) > 0) {
        tmpl.AddVariableEdge(q_of[e.from], q_of[e.to], e.label);
      } else {
        tmpl.AddEdge(q_of[e.from], q_of[e.to], e.label);
      }
    }
    for (uint64_t s : chosen) {
      const RangeSite& site = sites[s];
      CompareOp op = rng.NextBernoulli(spec.lower_bound_prob) ? CompareOp::kGe
                                                              : CompareOp::kLe;
      tmpl.AddRangeLiteral(q_of[nodes[site.node_index]], site.attr, op);
    }
    Status valid = tmpl.Validate();
    if (!valid.ok()) continue;
    return tmpl;
  }
  return Status::FailedPrecondition(
      "could not sample a template matching the spec; graph too sparse?");
}

}  // namespace fairsqg
