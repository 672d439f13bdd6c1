// Graph view of a thinned skeleton (paper Sec. 3, following Kégl & Krzyżak
// [7] as the paper does):
//
//  1. every skeleton pixel is a vertex of the *pixel graph* (8-adjacency);
//  2. junction pixels (degree >= 3) that touch other junction pixels — the
//     paper's "adjacent junction vertices" — are collapsed into a single
//     junction node per 8-connected cluster, which simplifies the graph and
//     bounds node degree;
//  3. maximal chains of degree-2 pixels become edges (segments) between
//     junction/end nodes, carrying their pixel path and Euclidean length.
//
// Loops are cut afterwards with a *maximum* spanning tree (loop_cut.hpp) and
// noisy branches are pruned one at a time (prune.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "imaging/image.hpp"

namespace slj {
struct FrameWorkspace;
}

namespace slj::skel {

enum class NodeType : std::uint8_t {
  kEnd,       ///< degree-1 pixel (limb tip: head top, hand, toe, ...)
  kJunction,  ///< collapsed cluster of degree->=3 pixels (limb intersection)
  kIsolated,  ///< lone pixel with no neighbours
  kLoopSeat,  ///< synthetic node anchoring a pure cycle with no junctions
  kBend,      ///< piecewise-linear bend vertex (knee/elbow inside a limb)
};

struct Node {
  int id = -1;
  PointI pos;              ///< representative pixel (cluster pixel nearest centroid)
  NodeType type = NodeType::kEnd;
  bool alive = true;
  std::vector<PointI> cluster;  ///< all pixels collapsed into this node
};

struct Edge {
  int id = -1;
  int a = -1;               ///< node id of one endpoint
  int b = -1;               ///< node id of the other endpoint (may equal a: self-loop)
  std::vector<PointI> path; ///< pixel chain including both terminal pixels
  double length = 0.0;      ///< Euclidean length along the path
  bool alive = true;
};

/// Construction telemetry (drives the Fig. 2 / Fig. 3 benches).
struct BuildStats {
  std::size_t skeleton_pixels = 0;
  std::size_t junction_pixels = 0;       ///< pixels with degree >= 3
  std::size_t junction_clusters = 0;     ///< nodes after collapsing
  std::size_t adjacent_junctions_removed = 0;  ///< junction pixels merged away
  std::size_t pixel_graph_cycles = 0;    ///< independent cycles E - V + C
};

class SkeletonGraph {
 public:
  SkeletonGraph() = default;

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  Node& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  Edge& edge(int id) { return edges_[static_cast<std::size_t>(id)]; }
  const Edge& edge(int id) const { return edges_[static_cast<std::size_t>(id)]; }

  /// Ids of alive edges incident to `node_id` (self-loops appear once).
  std::vector<int> incident_edges(int node_id) const;

  /// Degree of a node counting self-loops twice.
  int degree(int node_id) const;

  std::size_t alive_node_count() const;
  std::size_t alive_edge_count() const;

  /// Independent cycles among alive edges/nodes: E - V + C.
  std::size_t cycle_count() const;

  /// Sum of alive edge lengths.
  double total_length() const;

  int add_node(Node n);
  int add_edge(Edge e);
  void kill_edge(int id) { edges_[static_cast<std::size_t>(id)].alive = false; }
  void kill_node(int id) { nodes_[static_cast<std::size_t>(id)].alive = false; }

  /// Collapses an alive node of degree exactly 2 (two distinct incident
  /// edges) by splicing its edges into one. Returns true if merged.
  bool merge_degree2_node(int node_id);

  /// Draws all alive edges and node clusters into a w×h mask.
  BinaryImage rasterize(int width, int height) const;

  /// GraphViz dump for documentation / Fig. 7-style structure printing.
  std::string to_dot() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

/// Builds the simplified skeleton graph from a thinned 0/1 image. Every
/// temporary of the build lives in `ws` and is reused frame over frame: the
/// junction mask, the label image that maps each node pixel to its node id
/// + 1, the traced-step marks (one direction bit per pixel), the sorted
/// node pixels, the segment being traced and the pure-cycle visited map.
/// The four planes are frame-sized but cleared, scanned and read only
/// inside the skeleton's bounding box, which holds every pixel, cluster
/// and path; outside it they keep what an earlier frame left, and nothing
/// reads them there. The build allocates only the graph it returns: node
/// clusters, exact-size edge paths and the two lists. Node and edge ids
/// follow node pixels in PointI order and neighbours in kNeighbours8 order.
SkeletonGraph build_skeleton_graph(const BinaryImage& skeleton, FrameWorkspace& ws,
                                   BuildStats* stats = nullptr);

/// A key point as consumed by the pose module: a node position + kind.
struct KeyPoint {
  PointI pos;
  NodeType type;
};

/// Alive nodes of the graph as key points, ends first then junctions.
std::vector<KeyPoint> extract_key_points(const SkeletonGraph& graph);

}  // namespace slj::skel
