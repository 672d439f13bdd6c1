#include "skelgraph/skeleton_graph.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/simd.hpp"
#include "imaging/box.hpp"
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

// Every temporary of the build (masks, node-id labels, step marks, pixel
// lists) lives in the workspace; per frame it allocates only the graph.
SkeletonGraph build_skeleton_graph(const BinaryImage& skeleton, FrameWorkspace& ws,
                                   BuildStats* stats) {
  Image<std::uint8_t>& is_junction = ws.junction_mask;
  Labeling& scratch_labeling = ws.junction_labeling;
  std::vector<PointI>& scratch_stack = ws.junction_stack;
  BinaryImage& visited = ws.graph_visited;
  SkeletonGraph graph;
  const int w = skeleton.width();
  const int h = skeleton.height();
  // Every plane below is cleared, written and read inside the skeleton's
  // box only: skeleton pixels, their clusters, paths and labels all lie in
  // it, and every neighbour lookup that leaves it reads the skeleton itself.
  const PixelBox box = foreground_box(skeleton);
  const std::uint8_t* skel = skeleton.data().data();
  const std::size_t wn = static_cast<std::size_t>(w);
  // Calls fn(x, y) for every skeleton pixel in row-major order.
  const auto for_each_pixel = [&](auto&& fn) {
    const std::size_t x_end = static_cast<std::size_t>(box.x1);
    for (int y = box.y0; y < box.y1; ++y) {
      const std::uint8_t* row = skel + static_cast<std::size_t>(y) * wn;
      for (std::size_t xi = static_cast<std::size_t>(box.x0); xi < x_end; ++xi) {
        xi += simd::find_nonzero<simd::Active>(row + xi, x_end - xi);
        if (xi >= x_end) break;
        fn(static_cast<int>(xi), y);
      }
    }
  };

  // Classify pixels by degree in the pixel graph.
  is_junction.resize_discard(w, h);
  fill_box(is_junction, box, std::uint8_t{0});
  std::size_t skeleton_pixels = 0;
  std::size_t junction_pixels = 0;
  std::size_t pixel_edges2 = 0;  // 2x the number of pixel-graph edges
  for_each_pixel([&](int x, int y) {
    ++skeleton_pixels;
    const int d = pixel_degree(skeleton, x, y);
    pixel_edges2 += static_cast<std::size_t>(d);
    if (d >= 3) {
      is_junction.at(x, y) = 1;
      ++junction_pixels;
    }
  });

  // Collapse 8-connected clusters of junction pixels into single junction
  // nodes — the paper's adjacent-junction-vertex removal. Cluster k is node
  // k, so the label image (node id + 1, 0 elsewhere) maps every "special"
  // pixel (cluster members, ends, isolated) to its node.
  label_components_into(is_junction, box, /*eight_connected=*/true, scratch_labeling,
                        scratch_stack);
  Image<int>& node_label = scratch_labeling.labels;
  const std::size_t junction_cluster_count = scratch_labeling.components.size();
  std::vector<PointI>& specials = ws.graph_specials;
  specials.clear();
  for (const ComponentStats& c : scratch_labeling.components) {
    Node node;
    node.type = NodeType::kJunction;
    // Representative: cluster pixel nearest the centroid.
    double best = 1e30;
    for (int y = c.min.y; y <= c.max.y; ++y) {
      for (int x = c.min.x; x <= c.max.x; ++x) {
        if (node_label.at(x, y) != c.label) continue;
        node.cluster.push_back({x, y});
        const double d = distance(to_f(PointI{x, y}), c.centroid);
        if (d < best) {
          best = d;
          node.pos = {x, y};
        }
      }
    }
    specials.insert(specials.end(), node.cluster.begin(), node.cluster.end());
    graph.add_node(std::move(node));
  }

  // End and isolated pixels become their own nodes.
  for_each_pixel([&](int x, int y) {
    if (is_junction.at(x, y)) return;
    const int d = pixel_degree(skeleton, x, y);
    if (d == 1 || d == 0) {
      Node node;
      node.pos = {x, y};
      node.type = d == 1 ? NodeType::kEnd : NodeType::kIsolated;
      node.cluster = {node.pos};
      node_label.at(x, y) = graph.add_node(std::move(node)) + 1;
      specials.push_back({x, y});
    }
  });

  // Trace segments: from every special pixel, walk into each non-special
  // neighbour through degree-2 pixels until another special pixel is hit.
  // `steps` marks directed first/last steps (bit k of a pixel: the step
  // toward kNeighbours8[k]) so each segment is traced exactly once even when
  // both endpoints start traces.
  BinaryImage& steps = ws.graph_steps;
  steps.resize_discard(w, h);
  fill_box(steps, box, std::uint8_t{0});
  const auto step_bit = [](PointI from, PointI to) {
    // kNeighbours8 index of the offset to - from, by (dy + 1) * 3 + dx + 1.
    constexpr int kIndex[9] = {7, 0, 1, 6, -1, 2, 5, 4, 3};
    return static_cast<std::uint8_t>(1u << kIndex[(to.y - from.y + 1) * 3 + to.x - from.x + 1]);
  };
  // The 8-neighbours of p that are on the skeleton, in kNeighbours8 order.
  const auto neighbours_of = [&](PointI p, std::array<PointI, 8>& out) {
    std::size_t count = 0;
    for (const PointI& o : kNeighbours8) {
      const int nx = p.x + o.x;
      const int ny = p.y + o.y;
      if (skeleton.in_bounds(nx, ny) && skeleton.at(nx, ny)) out[count++] = {nx, ny};
    }
    return std::span<const PointI>(out.data(), count);
  };
  std::array<PointI, 8> firsts;
  std::array<PointI, 8> nbrs;

  // Deterministic order: specials sorted by PointI.
  std::sort(specials.begin(), specials.end());
  std::vector<PointI>& path = ws.graph_path;
  for (const PointI& start : specials) {
    const int start_label = node_label.at(start);
    for (const PointI& first : neighbours_of(start, firsts)) {
      if (node_label.at(first) == start_label) continue;  // intra-cluster adjacency
      if (steps.at(start) & step_bit(start, first)) continue;

      path.assign({start, first});
      PointI prev = start;
      PointI cur = first;
      while (node_label.at(cur) == 0) {
        // Regular pixel: exactly two neighbours; step to the one != prev.
        PointI next = prev;
        bool found = false;
        for (const PointI& n : neighbours_of(cur, nbrs)) {
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

      steps.at(start) |= step_bit(start, first);
      if (node_label.at(cur) != 0) {
        steps.at(cur) |= step_bit(cur, prev);
        Edge e;
        e.a = start_label - 1;
        e.b = node_label.at(cur) - 1;
        e.path.assign(path.begin(), path.end());
        graph.add_edge(std::move(e));
      }
    }
  }

  // Pure cycles (all pixels degree 2, no junction/end): seat a synthetic
  // node on the topmost-leftmost unvisited pixel and trace the self-loop.
  visited.resize_discard(w, h);
  fill_box(visited, box, std::uint8_t{0});
  for (const Edge& e : graph.edges()) {
    for (const PointI& p : e.path) visited.at(p) = 1;
  }
  for (const Node& n : graph.nodes()) {
    for (const PointI& p : n.cluster) visited.at(p) = 1;
  }
  for_each_pixel([&](int x, int y) {
    if (visited.at(x, y)) return;
    Node seat;
    seat.pos = {x, y};
    seat.type = NodeType::kLoopSeat;
    seat.cluster = {seat.pos};
    const int seat_id = graph.add_node(std::move(seat));
    // Walk the ring.
    path.clear();
    path.push_back({x, y});
    visited.at(x, y) = 1;
    PointI prev{x, y};
    const std::span<const PointI> ring = neighbours_of({x, y}, nbrs);
    if (ring.empty()) return;  // degree-0 handled as isolated above
    PointI cur = ring.front();
    while (cur != PointI{x, y}) {
      path.push_back(cur);
      visited.at(cur) = 1;
      PointI next = prev;
      for (const PointI& n : neighbours_of(cur, nbrs)) {
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
    e.path.assign(path.begin(), path.end());
    graph.add_edge(std::move(e));
  });

  if (stats != nullptr) {
    stats->skeleton_pixels = skeleton_pixels;
    stats->junction_pixels = junction_pixels;
    stats->junction_clusters = junction_cluster_count;
    stats->adjacent_junctions_removed = junction_pixels - junction_cluster_count;
    const std::size_t pixel_edges = pixel_edges2 / 2;
    // C, the skeleton's 8-connected components, counted on the graph just
    // built: every skeleton pixel lies in a node's cluster or on an edge's
    // path, and every pixel adjacency is inside a cluster or along a path,
    // so the pixel components are the graph's. Union-find over node ids.
    std::vector<int>& parent = ws.graph_parent;
    parent.resize(graph.nodes().size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
    const auto find = [&parent](int v) {
      while (parent[static_cast<std::size_t>(v)] != v) {
        parent[static_cast<std::size_t>(v)] =
            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
        v = parent[static_cast<std::size_t>(v)];
      }
      return v;
    };
    std::size_t components = parent.size();
    for (const Edge& e : graph.edges()) {
      const int ra = find(e.a);
      const int rb = find(e.b);
      if (ra != rb) {
        parent[static_cast<std::size_t>(ra)] = rb;
        --components;
      }
    }
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
