#include "skelgraph/skeleton_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/simd.hpp"
#include "imaging/connected.hpp"
#include "imaging/frame_workspace.hpp"

namespace slj::skel {
namespace {

int pixel_degree(const BinaryImage& skel, int x, int y) {
  int d = 0;
  for (const PointI& o : kNeighbours8) {
    d += skel.at_or(x + o.x, y + o.y, 0) ? 1 : 0;
  }
  return d;
}

double path_length(const std::vector<PointI>& path) {
  double len = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    len += distance(path[i - 1], path[i]);
  }
  return len;
}

}  // namespace

std::vector<int> SkeletonGraph::incident_edges(int node_id) const {
  std::vector<int> out;
  for (const Edge& e : edges_) {
    if (e.alive && (e.a == node_id || e.b == node_id)) out.push_back(e.id);
  }
  return out;
}

int SkeletonGraph::degree(int node_id) const {
  int d = 0;
  for (const Edge& e : edges_) {
    if (!e.alive) continue;
    if (e.a == node_id) ++d;
    if (e.b == node_id) ++d;
  }
  return d;
}

std::size_t SkeletonGraph::alive_node_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(), [](const Node& n) { return n.alive; }));
}

std::size_t SkeletonGraph::alive_edge_count() const {
  return static_cast<std::size_t>(
      std::count_if(edges_.begin(), edges_.end(), [](const Edge& e) { return e.alive; }));
}

std::size_t SkeletonGraph::cycle_count() const {
  // Union-find over alive nodes; every edge that joins two already-joined
  // nodes closes one independent cycle.
  std::vector<int> parent(nodes_.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&](int v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  std::size_t cycles = 0;
  for (const Edge& e : edges_) {
    if (!e.alive) continue;
    const int ra = find(e.a);
    const int rb = find(e.b);
    if (ra == rb) {
      ++cycles;
    } else {
      parent[static_cast<std::size_t>(ra)] = rb;
    }
  }
  return cycles;
}

double SkeletonGraph::total_length() const {
  double len = 0.0;
  for (const Edge& e : edges_) {
    if (e.alive) len += e.length;
  }
  return len;
}

int SkeletonGraph::add_node(Node n) {
  n.id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int SkeletonGraph::add_edge(Edge e) {
  e.id = static_cast<int>(edges_.size());
  e.length = path_length(e.path);
  edges_.push_back(std::move(e));
  return edges_.back().id;
}

bool SkeletonGraph::merge_degree2_node(int node_id) {
  Node& n = nodes_[static_cast<std::size_t>(node_id)];
  if (!n.alive) return false;
  const std::vector<int> inc = incident_edges(node_id);
  if (inc.size() != 2 || inc[0] == inc[1]) return false;  // self-loop: degree 2, one edge
  Edge& e1 = edges_[static_cast<std::size_t>(inc[0])];
  Edge& e2 = edges_[static_cast<std::size_t>(inc[1])];
  if (e1.a == e1.b || e2.a == e2.b) return false;

  // Orient both paths so they run ... -> node -> ...
  std::vector<PointI> p1 = e1.path;  // will end at node
  if (e1.a == node_id) std::reverse(p1.begin(), p1.end());
  std::vector<PointI> p2 = e2.path;  // starts at node
  if (e2.b == node_id) std::reverse(p2.begin(), p2.end());

  Edge merged;
  merged.a = (e1.a == node_id) ? e1.b : e1.a;
  merged.b = (e2.a == node_id) ? e2.b : e2.a;
  merged.path = std::move(p1);
  // Skip p2's first pixel — it is the shared node pixel already in p1.
  merged.path.insert(merged.path.end(), p2.begin() + 1, p2.end());

  e1.alive = false;
  e2.alive = false;
  n.alive = false;
  add_edge(std::move(merged));
  return true;
}

BinaryImage SkeletonGraph::rasterize(int width, int height) const {
  BinaryImage out(width, height, 0);
  for (const Edge& e : edges_) {
    if (!e.alive) continue;
    for (const PointI& p : e.path) {
      if (out.in_bounds(p)) out.at(p) = 1;
    }
  }
  for (const Node& n : nodes_) {
    if (!n.alive) continue;
    if (out.in_bounds(n.pos)) out.at(n.pos) = 1;
  }
  return out;
}

std::string SkeletonGraph::to_dot() const {
  std::string dot = "graph skeleton {\n";
  for (const Node& n : nodes_) {
    if (!n.alive) continue;
    dot += "  n" + std::to_string(n.id) + " [label=\"(" + std::to_string(n.pos.x) + "," +
           std::to_string(n.pos.y) + ")\"";
    if (n.type == NodeType::kJunction) dot += " shape=box";
    dot += "];\n";
  }
  for (const Edge& e : edges_) {
    if (!e.alive) continue;
    dot += "  n" + std::to_string(e.a) + " -- n" + std::to_string(e.b) + " [label=\"" +
           std::to_string(static_cast<int>(e.length)) + "\"];\n";
  }
  dot += "}\n";
  return dot;
}

// The build's full-frame temporaries (junction mask, label image, visited
// map, DFS stack) live in the workspace and are recycled frame over frame.
SkeletonGraph build_skeleton_graph(const BinaryImage& skeleton, FrameWorkspace& ws,
                                   BuildStats* stats) {
  Image<std::uint8_t>& is_junction = ws.junction_mask;
  Labeling& scratch_labeling = ws.junction_labeling;
  std::vector<PointI>& scratch_stack = ws.junction_stack;
  BinaryImage& visited = ws.graph_visited;
  SkeletonGraph graph;
  const int w = skeleton.width();
  const int h = skeleton.height();

  // Classify pixels by degree in the pixel graph.
  is_junction.assign(w, h, 0);
  std::size_t skeleton_pixels = 0;
  std::size_t junction_pixels = 0;
  std::size_t pixel_edges2 = 0;  // 2x the number of pixel-graph edges
  const std::uint8_t* skel = skeleton.data().data();
  const std::size_t wn = static_cast<std::size_t>(w);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* row = skel + static_cast<std::size_t>(y) * wn;
    for (std::size_t xi = 0; xi < wn; ++xi) {
      xi += simd::find_nonzero<simd::Active>(row + xi, wn - xi);
      if (xi >= wn) break;
      const int x = static_cast<int>(xi);
      ++skeleton_pixels;
      const int d = pixel_degree(skeleton, x, y);
      pixel_edges2 += static_cast<std::size_t>(d);
      if (d >= 3) {
        is_junction.at(x, y) = 1;
        ++junction_pixels;
      }
    }
  }

  // Collapse 8-connected clusters of junction pixels into single junction
  // nodes — the paper's adjacent-junction-vertex removal.
  label_components_into(is_junction, /*eight_connected=*/true, scratch_labeling, scratch_stack);
  const Labeling& junction_clusters = scratch_labeling;
  const std::size_t junction_cluster_count = junction_clusters.components.size();
  // pixel -> node id for "special" pixels (cluster members, ends, isolated).
  std::unordered_map<PointI, int> special;
  for (const ComponentStats& c : junction_clusters.components) {
    Node node;
    node.type = NodeType::kJunction;
    // Representative: cluster pixel nearest the centroid.
    double best = 1e30;
    for (int y = c.min.y; y <= c.max.y; ++y) {
      for (int x = c.min.x; x <= c.max.x; ++x) {
        if (junction_clusters.labels.at(x, y) != c.label) continue;
        node.cluster.push_back({x, y});
        const double d = distance(to_f(PointI{x, y}), c.centroid);
        if (d < best) {
          best = d;
          node.pos = {x, y};
        }
      }
    }
    const int id = graph.add_node(std::move(node));
    for (const PointI& p : graph.node(id).cluster) special[p] = id;
  }

  // End and isolated pixels become their own nodes.
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* row = skel + static_cast<std::size_t>(y) * wn;
    for (std::size_t xi = 0; xi < wn; ++xi) {
      xi += simd::find_nonzero<simd::Active>(row + xi, wn - xi);
      if (xi >= wn) break;
      const int x = static_cast<int>(xi);
      if (is_junction.at(x, y)) continue;
      const int d = pixel_degree(skeleton, x, y);
      if (d == 1 || d == 0) {
        Node node;
        node.pos = {x, y};
        node.type = d == 1 ? NodeType::kEnd : NodeType::kIsolated;
        node.cluster = {node.pos};
        special[node.pos] = graph.add_node(std::move(node));
      }
    }
  }

  // Trace segments: from every special pixel, walk into each non-special
  // neighbour through degree-2 pixels until another special pixel is hit.
  // `consumed` stores directed first/last steps so each segment is traced
  // exactly once even when both endpoints start traces.
  std::set<std::pair<PointI, PointI>> consumed;
  auto neighbours_of = [&](PointI p) {
    std::vector<PointI> out;
    for (const PointI& o : kNeighbours8) {
      const int nx = p.x + o.x;
      const int ny = p.y + o.y;
      if (skeleton.in_bounds(nx, ny) && skeleton.at(nx, ny)) out.push_back({nx, ny});
    }
    return out;
  };

  std::vector<std::pair<PointI, int>> specials(special.begin(), special.end());
  // Deterministic order regardless of hash-map iteration.
  std::sort(specials.begin(), specials.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (const auto& [start, start_node] : specials) {
    for (const PointI& first : neighbours_of(start)) {
      const auto first_special = special.find(first);
      if (first_special != special.end() && first_special->second == start_node) {
        continue;  // intra-cluster adjacency, not a segment
      }
      if (consumed.contains({start, first})) continue;

      std::vector<PointI> path{start, first};
      PointI prev = start;
      PointI cur = first;
      while (!special.contains(cur)) {
        // Regular pixel: exactly two neighbours; step to the one != prev.
        PointI next = prev;
        bool found = false;
        for (const PointI& n : neighbours_of(cur)) {
          if (n != prev) {
            next = n;
            found = true;
            break;
          }
        }
        if (!found) break;  // defensive: dangling chain, treat cur as terminal
        prev = cur;
        cur = next;
        path.push_back(cur);
      }

      consumed.insert({start, first});
      const auto terminal = special.find(cur);
      if (terminal != special.end()) {
        consumed.insert({cur, prev});
        Edge e;
        e.a = start_node;
        e.b = terminal->second;
        e.path = std::move(path);
        graph.add_edge(std::move(e));
      }
    }
  }

  // Pure cycles (all pixels degree 2, no junction/end): seat a synthetic
  // node on the topmost-leftmost unvisited pixel and trace the self-loop.
  visited.assign(w, h, 0);
  for (const Edge& e : graph.edges()) {
    for (const PointI& p : e.path) visited.at(p) = 1;
  }
  for (const Node& n : graph.nodes()) {
    for (const PointI& p : n.cluster) visited.at(p) = 1;
  }
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* row = skel + static_cast<std::size_t>(y) * wn;
    for (std::size_t xi = 0; xi < wn; ++xi) {
      xi += simd::find_nonzero<simd::Active>(row + xi, wn - xi);
      if (xi >= wn) break;
      const int x = static_cast<int>(xi);
      if (visited.at(x, y)) continue;
      Node seat;
      seat.pos = {x, y};
      seat.type = NodeType::kLoopSeat;
      seat.cluster = {seat.pos};
      const int seat_id = graph.add_node(std::move(seat));
      // Walk the ring.
      std::vector<PointI> path{{x, y}};
      visited.at(x, y) = 1;
      PointI prev{x, y};
      std::vector<PointI> nbrs = neighbours_of({x, y});
      if (nbrs.empty()) continue;  // degree-0 handled as isolated above
      PointI cur = nbrs.front();
      while (cur != PointI{x, y}) {
        path.push_back(cur);
        visited.at(cur) = 1;
        PointI next = prev;
        for (const PointI& n : neighbours_of(cur)) {
          if (n != prev) {
            next = n;
            break;
          }
        }
        prev = cur;
        cur = next;
        if (cur == prev) break;  // defensive
      }
      path.push_back({x, y});
      Edge e;
      e.a = seat_id;
      e.b = seat_id;
      e.path = std::move(path);
      graph.add_edge(std::move(e));
    }
  }

  if (stats != nullptr) {
    stats->skeleton_pixels = skeleton_pixels;
    stats->junction_pixels = junction_pixels;
    stats->junction_clusters = junction_cluster_count;
    stats->adjacent_junctions_removed = junction_pixels - junction_cluster_count;
    const std::size_t pixel_edges = pixel_edges2 / 2;
    // Same count as component_count(skeleton), through the caller's scratch
    // (junction_clusters is no longer read past node construction).
    label_components_into(skeleton, /*eight_connected=*/true, scratch_labeling, scratch_stack);
    const std::size_t components = scratch_labeling.components.size();
    stats->pixel_graph_cycles =
        pixel_edges + components >= skeleton_pixels ? pixel_edges + components - skeleton_pixels : 0;
  }
  return graph;
}

std::vector<KeyPoint> extract_key_points(const SkeletonGraph& graph) {
  std::vector<KeyPoint> pts;
  for (const Node& n : graph.nodes()) {
    if (n.alive && n.type == NodeType::kEnd) pts.push_back({n.pos, n.type});
  }
  for (const Node& n : graph.nodes()) {
    if (n.alive && n.type != NodeType::kEnd) pts.push_back({n.pos, n.type});
  }
  return pts;
}

}  // namespace slj::skel
