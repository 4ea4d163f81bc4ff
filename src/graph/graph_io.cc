#include "graph/graph_io.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"
#include "graph/graph_builder.h"

namespace fairsqg {

namespace {

std::string EncodeValue(const AttrValue& v) {
  if (v.is_int()) return "i:" + v.ToString();
  if (v.is_double()) return "d:" + v.ToString();
  return "s:" + v.as_string();
}

Result<AttrValue> DecodeValue(std::string_view text) {
  if (text.size() < 2 || text[1] != ':') {
    return Status::InvalidArgument("bad attr value: '" + std::string(text) + "'");
  }
  std::string_view body = text.substr(2);
  switch (text[0]) {
    case 'i': {
      FAIRSQG_ASSIGN_OR_RETURN(int64_t v, ParseInt64(body));
      return AttrValue(v);
    }
    case 'd': {
      FAIRSQG_ASSIGN_OR_RETURN(double v, ParseDouble(body));
      return AttrValue(v);
    }
    case 's':
      return AttrValue(std::string(body));
    default:
      return Status::InvalidArgument("bad attr tag: '" + std::string(text) + "'");
  }
}

}  // namespace

Status WriteGraphText(const Graph& g, std::ostream& out) {
  out << "# fairsqg graph v1: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "v " << v << " " << g.schema().NodeLabelName(g.node_label(v));
    for (const AttrEntry& e : g.attrs(v)) {
      out << " " << g.schema().AttrName(e.attr) << "="
          << EncodeValue(g.attr_value(e));
    }
    out << "\n";
  }
  // Canonical edge order: (from, to, label name) — independent of the
  // schema's label interning order, so re-serializing a loaded graph is
  // byte-identical.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto adj = g.OutEdges(v);
    std::vector<const AdjEntry*> sorted;
    sorted.reserve(adj.size());
    for (const AdjEntry& e : adj) sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [&](const AdjEntry* a, const AdjEntry* b) {
                if (a->neighbor != b->neighbor) return a->neighbor < b->neighbor;
                return g.schema().EdgeLabelName(a->edge_label) <
                       g.schema().EdgeLabelName(b->edge_label);
              });
    for (const AdjEntry* e : sorted) {
      out << "e " << v << " " << e->neighbor << " "
          << g.schema().EdgeLabelName(e->edge_label) << "\n";
    }
  }
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Status WriteGraphFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  return WriteGraphText(g, out);
}

Result<Graph> ReadGraphText(std::istream& in) {
  GraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view text = StripWhitespace(line);
    if (text.empty() || text[0] == '#') continue;
    std::vector<std::string_view> tok = SplitString(text, ' ');
    auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " + why);
    };
    if (tok[0] == "v") {
      if (tok.size() < 3) return fail("node line needs id and label");
      FAIRSQG_ASSIGN_OR_RETURN(int64_t id, ParseInt64(tok[1]));
      if (id != static_cast<int64_t>(builder.num_nodes())) {
        return fail("node ids must be dense and ascending");
      }
      NodeId v = builder.AddNode(tok[2]);
      for (size_t i = 3; i < tok.size(); ++i) {
        if (tok[i].empty()) continue;
        size_t eq = tok[i].find('=');
        if (eq == std::string_view::npos) return fail("attr needs name=value");
        FAIRSQG_ASSIGN_OR_RETURN(AttrValue value,
                                 DecodeValue(tok[i].substr(eq + 1)));
        builder.SetAttr(v, tok[i].substr(0, eq), std::move(value));
      }
    } else if (tok[0] == "e") {
      if (tok.size() != 4) return fail("edge line needs from to label");
      FAIRSQG_ASSIGN_OR_RETURN(int64_t from, ParseInt64(tok[1]));
      FAIRSQG_ASSIGN_OR_RETURN(int64_t to, ParseInt64(tok[2]));
      if (from < 0 || to < 0 ||
          from >= static_cast<int64_t>(builder.num_nodes()) ||
          to >= static_cast<int64_t>(builder.num_nodes())) {
        return fail("edge endpoint out of range");
      }
      builder.AddEdge(static_cast<NodeId>(from), static_cast<NodeId>(to), tok[3]);
    } else {
      return fail("unknown record type '" + std::string(tok[0]) + "'");
    }
  }
  return std::move(builder).Build();
}

Result<Graph> ReadGraphFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  return ReadGraphText(in);
}

}  // namespace fairsqg
