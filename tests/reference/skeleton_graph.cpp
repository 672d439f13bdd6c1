#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "imaging/connected.hpp"
#include "reference.hpp"
#include "skelgraph/loop_cut.hpp"
#include "skelgraph/prune.hpp"

namespace slj::reference {
namespace {

int pixel_degree(const BinaryImage& skel, int x, int y) {
  int d = 0;
  for (const PointI& o : kNeighbours8) {
    d += skel.at_or(x + o.x, y + o.y, 0) ? 1 : 0;
  }
  return d;
}

}  // namespace

skel::SkeletonGraph build_skeleton_graph(const BinaryImage& skeleton, skel::BuildStats* stats) {
  using skel::Edge;
  using skel::Node;
  using skel::NodeType;
  skel::SkeletonGraph graph;
  const int w = skeleton.width();
  const int h = skeleton.height();

  // Classify pixels by degree in the pixel graph.
  BinaryImage is_junction(w, h, 0);
  std::size_t skeleton_pixels = 0;
  std::size_t junction_pixels = 0;
  std::size_t pixel_edges2 = 0;  // 2x the number of pixel-graph edges
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!skeleton.at(x, y)) continue;
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
  const Labeling junction_clusters = label_components(is_junction, /*eight_connected=*/true);
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
    for (int x = 0; x < w; ++x) {
      if (!skeleton.at(x, y) || is_junction.at(x, y)) continue;
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
  BinaryImage visited(w, h, 0);
  for (const Edge& e : graph.edges()) {
    for (const PointI& p : e.path) visited.at(p) = 1;
  }
  for (const Node& n : graph.nodes()) {
    for (const PointI& p : n.cluster) visited.at(p) = 1;
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!skeleton.at(x, y) || visited.at(x, y)) continue;
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
    const std::size_t clusters = junction_clusters.components.size();
    stats->skeleton_pixels = skeleton_pixels;
    stats->junction_pixels = junction_pixels;
    stats->junction_clusters = clusters;
    stats->adjacent_junctions_removed = junction_pixels - clusters;
    const std::size_t pixel_edges = pixel_edges2 / 2;
    const std::size_t components = component_count(skeleton, /*eight_connected=*/true);
    stats->pixel_graph_cycles =
        pixel_edges + components >= skeleton_pixels ? pixel_edges + components - skeleton_pixels : 0;
  }
  return graph;
}

skel::SkeletonGraph clean_skeleton(const BinaryImage& skeleton, int min_branch_vertices,
                                   skel::CleanupStats* stats) {
  skel::CleanupStats local;
  skel::SkeletonGraph graph = build_skeleton_graph(skeleton, &local.build);
  local.loops = skel::cut_loops(graph, skel::SpanningPolicy::kMaximum);
  local.prune = skel::prune_branches(graph, min_branch_vertices, skel::PruningMode::kOneAtATime);
  if (stats != nullptr) *stats = local;
  return graph;
}

}  // namespace slj::reference
