#include "pose/skeleton_features.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

namespace slj::pose {
namespace {

std::vector<int> alive_nodes(const skel::SkeletonGraph& graph) {
  std::vector<int> ids;
  for (const skel::Node& n : graph.nodes()) {
    if (n.alive) ids.push_back(n.id);
  }
  return ids;
}

/// Midpoint by arc length of a concatenated pixel path.
PointF arc_midpoint(const std::vector<PointI>& path) {
  if (path.empty()) return {};
  if (path.size() == 1) return to_f(path.front());
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) total += distance(path[i - 1], path[i]);
  const double half = total / 2.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const double seg = distance(path[i - 1], path[i]);
    if (acc + seg >= half) {
      const double t = seg > 0.0 ? (half - acc) / seg : 0.0;
      return to_f(path[i - 1]) + (to_f(path[i]) - to_f(path[i - 1])) * t;
    }
    acc += seg;
  }
  return to_f(path.back());
}

}  // namespace

int nearest_node(const skel::SkeletonGraph& graph, PointF p) {
  int best = -1;
  double best_d = std::numeric_limits<double>::max();
  for (const skel::Node& n : graph.nodes()) {
    if (!n.alive) continue;
    const double d = distance(to_f(n.pos), p);
    if (d < best_d) {
      best_d = d;
      best = n.id;
    }
  }
  return best;
}

TorsoEstimate estimate_torso(const skel::SkeletonGraph& graph, int head_node, int foot_node) {
  TorsoEstimate est;
  est.head_node = head_node;
  est.foot_node = foot_node;
  const PointF head_pos = to_f(graph.node(head_node).pos);
  const PointF foot_pos = to_f(graph.node(foot_node).pos);
  if (head_node == foot_node) {
    est.waist = head_pos;
    est.connected = true;
    return est;
  }

  // Dijkstra over node ids with edge lengths as weights.
  const std::size_t n = graph.nodes().size();
  std::vector<double> dist(n, std::numeric_limits<double>::max());
  std::vector<int> pred_edge(n, -1);
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[static_cast<std::size_t>(head_node)] = 0.0;
  pq.push({0.0, head_node});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == foot_node) break;
    for (const int eid : graph.incident_edges(u)) {
      const skel::Edge& e = graph.edge(eid);
      const int v = e.a == u ? e.b : e.a;
      if (v == u) continue;  // self-loop
      const double nd = d + e.length;
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        pred_edge[static_cast<std::size_t>(v)] = eid;
        pq.push({nd, v});
      }
    }
  }

  if (dist[static_cast<std::size_t>(foot_node)] == std::numeric_limits<double>::max()) {
    // Disconnected (possible right after junction-cluster removal on broken
    // skeletons): straight-line torso.
    est.connected = false;
    est.waist = (head_pos + foot_pos) / 2.0;
    est.path_length = distance(head_pos, foot_pos);
    return est;
  }

  // Reconstruct the pixel path foot -> head, then flip.
  std::vector<PointI> full_path;
  int cur = foot_node;
  while (cur != head_node) {
    const int eid = pred_edge[static_cast<std::size_t>(cur)];
    const skel::Edge& e = graph.edge(eid);
    std::vector<PointI> seg = e.path;
    // Orient the segment so it ends at `cur`'s representative side: the
    // stored path runs a -> b; we need ... -> cur.
    if (e.b != cur) std::reverse(seg.begin(), seg.end());
    // Prepend (we are walking backwards): collect then reverse at the end.
    if (!full_path.empty() && !seg.empty()) seg.pop_back();  // avoid duplicate joint pixel
    full_path.insert(full_path.end(), seg.rbegin(), seg.rend());
    cur = e.a == cur ? e.b : e.a;
  }
  std::reverse(full_path.begin(), full_path.end());  // now head -> foot

  est.connected = true;
  est.path_length = dist[static_cast<std::size_t>(foot_node)];
  est.waist = arc_midpoint(full_path);
  return est;
}

std::vector<FeatureCandidate> enumerate_candidates(const skel::SkeletonGraph& graph,
                                                   const AreaEncoder& encoder,
                                                   const CandidateOptions& /*options*/) {
  std::vector<FeatureCandidate> out;
  const std::vector<int> nodes = alive_nodes(graph);
  if (nodes.empty()) return out;

  // Paper rule: the lowest key point is the Foot.
  const int foot = *std::max_element(nodes.begin(), nodes.end(), [&](int a, int b) {
    const PointI pa = graph.node(a).pos;
    const PointI pb = graph.node(b).pos;
    return pa.y != pb.y ? pa.y < pb.y : pa.x < pb.x;
  });

  // Head candidates: topmost end nodes (falling back to any topmost node).
  std::vector<int> head_candidates;
  for (const int id : nodes) {
    if (id != foot && graph.node(id).type == skel::NodeType::kEnd) head_candidates.push_back(id);
  }
  if (head_candidates.empty()) {
    for (const int id : nodes) {
      if (id != foot) head_candidates.push_back(id);
    }
  }
  std::sort(head_candidates.begin(), head_candidates.end(), [&](int a, int b) {
    const PointI pa = graph.node(a).pos;
    const PointI pb = graph.node(b).pos;
    return pa.y != pb.y ? pa.y < pb.y : pa.x < pb.x;
  });
  if (static_cast<int>(head_candidates.size()) > CandidateOptions::kMaxHeadCandidates) {
    head_candidates.resize(static_cast<std::size_t>(CandidateOptions::kMaxHeadCandidates));
  }
  if (head_candidates.empty()) {
    // Single-node skeleton: everything collapses onto the foot.
    FeatureCandidate c;
    c.waist = to_f(graph.node(foot).pos);
    for (int i = 0; i < kPartCount; ++i) c.features.areas[static_cast<std::size_t>(i)] = encoder.missing_state();
    c.features[Part::kFoot] = encoder.area_of(to_f(graph.node(foot).pos), c.waist);
    c.nodes[static_cast<std::size_t>(Part::kFoot)] = foot;
    c.occupancy.assign(static_cast<std::size_t>(encoder.num_areas()), 0);
    c.occupancy[static_cast<std::size_t>(c.features[Part::kFoot])] = 1;
    out.push_back(c);
    return out;
  }

  for (const int head : head_candidates) {
    const TorsoEstimate torso = estimate_torso(graph, head, foot);
    const PointF waist = torso.waist;

    // Free points for Chest/Hand/Knee.
    std::vector<int> free;
    for (const int id : nodes) {
      if (id != head && id != foot) free.push_back(id);
    }
    std::sort(free.begin(), free.end(), [&](int a, int b) {
      const PointI pa = graph.node(a).pos;
      const PointI pb = graph.node(b).pos;
      return pa.y != pb.y ? pa.y < pb.y : pa.x < pb.x;
    });
    if (static_cast<int>(free.size()) > CandidateOptions::kMaxFreePoints) {
      free.resize(static_cast<std::size_t>(CandidateOptions::kMaxFreePoints));
    }

    // Occupied areas: every key point claims its area around this waist.
    std::set<int> occupied;
    for (const int id : nodes) {
      occupied.insert(encoder.area_of(to_f(graph.node(id).pos), waist));
    }

    // Geometric part assignment (pose-independent, mirroring how the
    // training snap behaves):
    //   Knee  — the free point most "between" waist and foot, below the
    //           waist: minimizes the detour d(waist,n)+d(n,foot)-d(waist,foot).
    //   Hand  — the free END point farthest from the torso axis (arms are
    //           the limb that sticks out); junctions only as fallback.
    //   Chest — the free point above the waist closest to the waist→head
    //           segment (typically the shoulder junction).
    std::vector<int> remaining = free;
    const PointF head_pos = to_f(graph.node(head).pos);
    const PointF foot_pos = to_f(graph.node(foot).pos);

    const auto take = [&](int id) {
      remaining.erase(std::remove(remaining.begin(), remaining.end(), id), remaining.end());
    };

    // Knee: prefer nodes lying essentially on the waist→foot chord (small
    // detour), and among those the one nearest the anatomical midpoint;
    // bend vertices from the piecewise-linear refinement land exactly here
    // when the leg is flexed.
    int knee = -1;
    {
      double best_mid = std::numeric_limits<double>::max();
      double best_detour = std::numeric_limits<double>::max();
      constexpr double kOnChord = 7.0;
      for (const int id : remaining) {
        const PointF p = to_f(graph.node(id).pos);
        if (p.y < waist.y - CandidateOptions::kVerticalSlack) continue;  // above waist
        const double detour =
            distance(waist, p) + distance(p, foot_pos) - distance(waist, foot_pos);
        const double mid = std::abs(distance(waist, p) - distance(p, foot_pos));
        if (detour < kOnChord) {
          if (best_detour >= kOnChord || mid < best_mid) {
            best_mid = mid;
            best_detour = detour;
            knee = id;
          }
        } else if (best_detour >= kOnChord && detour < best_detour) {
          best_detour = detour;
          knee = id;
        }
      }
    }
    if (knee >= 0) take(knee);

    // Hand: distance from the straight head-foot axis (torso proxy).
    const auto axis_distance = [&](PointF p) {
      const PointF axis = foot_pos - head_pos;
      const double len = norm(axis);
      if (len < 1e-9) return distance(p, head_pos);
      const double cross =
          axis.x * (p.y - head_pos.y) - axis.y * (p.x - head_pos.x);
      return std::abs(cross) / len;
    };
    int hand = -1;
    double hand_best = -1.0;
    for (const bool ends_only : {true, false}) {
      for (const int id : remaining) {
        if (ends_only && graph.node(id).type != skel::NodeType::kEnd) continue;
        const double d = axis_distance(to_f(graph.node(id).pos));
        if (d > hand_best) {
          hand_best = d;
          hand = id;
        }
      }
      if (hand >= 0) break;
    }
    if (hand >= 0) take(hand);

    // Chest.
    int chest = -1;
    double chest_best = std::numeric_limits<double>::max();
    for (const int id : remaining) {
      const PointF p = to_f(graph.node(id).pos);
      if (p.y > waist.y + CandidateOptions::kVerticalSlack) continue;  // below waist
      const double detour =
          distance(waist, p) + distance(p, head_pos) - distance(waist, head_pos);
      if (detour < chest_best) {
        chest_best = detour;
        chest = id;
      }
    }
    if (chest >= 0) take(chest);

    FeatureCandidate c;
    c.waist = waist;
    const auto set_part = [&](Part part, int id) {
      c.nodes[static_cast<std::size_t>(part)] = id;
      c.features[part] = id >= 0 ? encoder.area_of(to_f(graph.node(id).pos), waist)
                                 : encoder.missing_state();
    };
    set_part(Part::kHead, head);
    set_part(Part::kFoot, foot);
    set_part(Part::kKnee, knee);
    set_part(Part::kHand, hand);
    set_part(Part::kChest, chest);

    std::set<int> covered;
    for (int pi = 0; pi < kPartCount; ++pi) {
      if (c.nodes[static_cast<std::size_t>(pi)] >= 0) {
        covered.insert(c.features.areas[static_cast<std::size_t>(pi)]);
      }
    }
    c.unexplained_areas = 0;
    for (const int a : occupied) {
      if (!covered.contains(a)) ++c.unexplained_areas;
    }
    c.occupancy.assign(static_cast<std::size_t>(encoder.num_areas()), 0);
    for (const int a : occupied) {
      if (a >= 0 && a < encoder.num_areas()) c.occupancy[static_cast<std::size_t>(a)] = 1;
    }
    out.push_back(c);
  }
  return out;
}

std::optional<FeatureCandidate> features_from_truth(const skel::SkeletonGraph& graph,
                                                    const AreaEncoder& encoder,
                                                    const PartPoints& truth,
                                                    double max_snap_distance) {
  (void)max_snap_distance;  // kept for API stability; selection is candidate-based
  // The training features MUST come from the same geometric assignment the
  // classifier sees at test time, or the learned CPTs would model a
  // different distribution. The annotator's ground truth is used only to
  // pick *which* head hypothesis is the right one (and to label the pose).
  const std::vector<FeatureCandidate> candidates = enumerate_candidates(graph, encoder);
  if (candidates.empty()) return std::nullopt;
  double best_d = std::numeric_limits<double>::max();
  const FeatureCandidate* best = nullptr;
  for (const FeatureCandidate& c : candidates) {
    const int head = c.nodes[static_cast<std::size_t>(Part::kHead)];
    const double d = head >= 0 ? distance(to_f(graph.node(head).pos), truth.head)
                               : std::numeric_limits<double>::max() / 2.0;
    if (d < best_d) {
      best_d = d;
      best = &c;
    }
  }
  return *best;
}

}  // namespace slj::pose
