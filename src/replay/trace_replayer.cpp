#include "replay/trace_replayer.hpp"

#include <bit>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/stream_engine.hpp"

namespace slj::replay {

namespace {

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("replay: corrupt trace: " + what);
}

/// What the recorded push outcomes say entered one session's queue. Filled
/// in pass 1, because the recorder's push-vs-tick race means an admitted
/// push may be logged after the tick — or even the close — that follows it.
struct PushTotals {
  std::uint64_t admitted = 0;  ///< pushes that entered the queue
  std::uint64_t replaced = 0;  ///< admitted frames later shed by drop-oldest
};

/// Replay-side per-session state (pass 2, record order).
struct SessionBook {
  int live_id = -1;
  bool open = false;
  int width = 0;   ///< background size: every frame of the session must match
  int height = 0;
  std::uint64_t delivered = 0;  ///< tick entries replayed for this session
};

/// Bit-level: NaN payloads, signed zero and every ulp must survive.
bool posterior_matches(double recorded, double replayed) {
  return std::bit_cast<std::uint64_t>(recorded) == std::bit_cast<std::uint64_t>(replayed);
}

bool findings_match(const core::FaultFinding& a, const core::FaultFinding& b) {
  return a.rule == b.rule && a.passed == b.passed && a.evidence_frames == b.evidence_frames;
}

bool reports_match(const core::JumpReport& a, const core::JumpReport& b) {
  if (a.frames_shed != b.frames_shed || a.findings.size() != b.findings.size()) return false;
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    if (!findings_match(a.findings[i], b.findings[i])) return false;
  }
  return true;
}

/// "" when the updates agree; otherwise which field diverged first.
std::string update_divergence(const core::StreamUpdate& recorded,
                              const core::StreamUpdate& replayed) {
  if (recorded.frame_index != replayed.frame_index) return "frame_index";
  if (recorded.airborne != replayed.airborne) return "airborne";
  if (recorded.result.pose != replayed.result.pose) return "result.pose";
  if (recorded.result.best_pose != replayed.result.best_pose) return "result.best_pose";
  if (recorded.result.stage != replayed.result.stage) return "result.stage";
  if (recorded.result.candidate_index != replayed.result.candidate_index) {
    return "result.candidate_index";
  }
  if (!posterior_matches(recorded.result.posterior, replayed.result.posterior)) {
    return "result.posterior";
  }
  if (recorded.resolved.size() != replayed.resolved.size()) return "resolved.size";
  for (std::size_t i = 0; i < recorded.resolved.size(); ++i) {
    if (recorded.resolved[i].frame != replayed.resolved[i].frame ||
        !findings_match(recorded.resolved[i].finding, replayed.resolved[i].finding)) {
      return "resolved[" + std::to_string(i) + "]";
    }
  }
  return "";
}

/// The one replay core. A frame source drives it in two passes:
///
///   1. index_push() for every push record, in any order. Indexing first
///      makes the replay immune to the recorder's benign push-vs-tick
///      ordering race: a producer thread can log its push *after* the
///      scheduler logged the tick that consumed the frame, so a tick may
///      legally reference a frame that appears later in the trace. Each
///      admitted frame is indexed by (session, sequence) under a `handle`
///      the source chooses (a record index, a file offset).
///   2. replay() for every record in order, which re-drives the
///      deterministic analysis plane. A tick resolves its frames through
///      the source's `frame_of(handle)`, so only the frames of the current
///      tick need to be in memory.
class ReplayCore {
 public:
  using FrameOf = std::function<const RgbImage*(std::uint64_t handle)>;

  ReplayCore(const pose::PoseDbnClassifier& classifier, const core::PipelineParams& params,
             const ReplayOptions& options)
      : manager_(classifier, params, manager_config(options)) {}

  void index_push(const PushRecord& push, std::size_t frame_pixels, std::uint64_t handle) {
    span(push.t_ns);
    switch (push.outcome) {
      case ingest::PushOutcome::kReplacedOldest:
        ++totals_.dropped_oldest;
        ++push_totals_[push.session].replaced;
        [[fallthrough]];
      case ingest::PushOutcome::kAccepted: {
        ++totals_.pushed;
        ++push_totals_[push.session].admitted;
        if (frame_pixels == 0) corrupt("admitted push carries no frame");
        const auto key = std::make_pair(push.session, push.sequence);
        if (!frames_.emplace(key, handle).second) {
          corrupt("duplicate frame (session " + std::to_string(push.session) + ", sequence " +
                  std::to_string(push.sequence) + ")");
        }
        break;
      }
      case ingest::PushOutcome::kClosed: ++totals_.closed_pushes; break;
    }
  }

  void replay(const TraceRecord& record, const FrameOf& frame_of) {
    std::visit(
        [&](const auto& r) {
          using T = std::decay_t<decltype(r)>;
          // Pushes were fully accounted in pass 1 — deliberately
          // position-independent, since a producer thread may log its push
          // after the tick (or even the close) that consumed the frame.
          if constexpr (!std::is_same_v<T, PushRecord>) span(r.t_ns);
          if constexpr (std::is_same_v<T, OpenRecord>) open(r);
          else if constexpr (std::is_same_v<T, TickRecord>) tick(r, frame_of);
          else if constexpr (std::is_same_v<T, CloseRecord>) close(r);
          else if constexpr (std::is_same_v<T, SummaryRecord>) summary(r);
        },
        record);
  }

  ReplayResult finish() { return std::move(result_); }

 private:
  static core::StreamManagerConfig manager_config(const ReplayOptions& options) {
    core::StreamManagerConfig config;
    config.workers = options.workers;
    return config;
  }

  void span(std::int64_t t_ns) {
    if (t_ns > result_.recorded_span_ns) result_.recorded_span_ns = t_ns;
  }

  void note(std::uint64_t& counter, std::string text) {
    ++counter;
    if (result_.mismatches.size() < ReplayResult::kMaxMismatchDetails) {
      result_.mismatches.push_back(std::move(text));
    }
  }

  SessionBook& book_of(int session) {
    if (session < 0 || static_cast<std::size_t>(session) >= books_.size() ||
        !books_[static_cast<std::size_t>(session)].open) {
      corrupt("record references session " + std::to_string(session) +
              " which is not open at that point");
    }
    return books_[static_cast<std::size_t>(session)];
  }

  void open(const OpenRecord& r) {
    if (static_cast<std::size_t>(r.session) >= books_.size()) {
      books_.resize(static_cast<std::size_t>(r.session) + 1);
    }
    SessionBook& book = books_[static_cast<std::size_t>(r.session)];
    if (book.open) corrupt("session " + std::to_string(r.session) + " opened twice");
    if (!r.background) corrupt("session " + std::to_string(r.session) + " has no background");
    book = SessionBook{};
    book.live_id = manager_.open_session(*r.background);
    book.open = true;
    book.width = r.background->width();
    book.height = r.background->height();
    ++result_.sessions_opened;
  }

  void tick(const TickRecord& r, const FrameOf& frame_of) {
    feeds_.clear();
    for (const TickEntry& entry : r.entries) {
      SessionBook& book = book_of(entry.session);
      const auto it = frames_.find(std::make_pair(entry.session, entry.sequence));
      if (it == frames_.end()) {
        corrupt("tick references unrecorded frame (session " + std::to_string(entry.session) +
                ", sequence " + std::to_string(entry.sequence) + ")");
      }
      const RgbImage* frame = frame_of(it->second);
      if (frame == nullptr || frame->width() != book.width || frame->height() != book.height) {
        corrupt("frame (session " + std::to_string(entry.session) + ", sequence " +
                std::to_string(entry.sequence) + ") does not match its session's background");
      }
      feeds_.push_back({book.live_id, frame});
      ++book.delivered;
    }
    if (!feeds_.empty()) {
      manager_.tick_into(feeds_, updates_);
      for (std::size_t i = 0; i < r.entries.size(); ++i) {
        const std::string field = update_divergence(r.entries[i].update, updates_[i]);
        if (!field.empty()) {
          note(result_.update_mismatches,
               "tick " + std::to_string(result_.ticks) + " session " +
                   std::to_string(r.entries[i].session) + " frame " +
                   std::to_string(r.entries[i].update.frame_index) + ": " + field + " diverged");
        } else {
          ++result_.frames_replayed;
        }
      }
    }
    ++result_.ticks;
    ++totals_.ticks;
  }

  void close(const CloseRecord& r) {
    SessionBook& book = book_of(r.session);
    core::JumpReport replayed = manager_.close_session(book.live_id);
    book.open = false;
    ++result_.sessions_closed;
    if (r.evicted) ++totals_.evicted_sessions;
    // The live report counts the frames its queue shed; here that is the
    // session's replaced pushes.
    const PushTotals& pushes = push_totals_[r.session];
    replayed.frames_shed = pushes.replaced;
    if (!reports_match(r.report, replayed)) {
      note(result_.report_mismatches,
           "session " + std::to_string(r.session) + ": final JumpReport diverged");
    }
    // Re-balance this session's books: whatever was admitted but neither
    // shed by drop-oldest nor delivered must equal the recorded discard count.
    const std::uint64_t expected = pushes.admitted - pushes.replaced - book.delivered;
    if (expected != r.discarded) {
      note(result_.accounting_mismatches,
           "session " + std::to_string(r.session) + ": recorded " +
               std::to_string(r.discarded) + " discarded frames, push/tick records imply " +
               std::to_string(expected));
    }
    totals_.discarded += r.discarded;
  }

  void summary(const SummaryRecord& r) {
    result_.has_summary = true;
    totals_.delivered = 0;
    for (const SessionBook& book : books_) totals_.delivered += book.delivered;
    const auto check = [&](const char* name, std::uint64_t recorded, std::uint64_t recomputed) {
      if (recorded != recomputed) {
        note(result_.accounting_mismatches,
             std::string("summary ") + name + ": recorded " + std::to_string(recorded) +
                 ", recomputed " + std::to_string(recomputed));
      }
    };
    check("pushed", r.pushed, totals_.pushed);
    check("delivered", r.delivered, totals_.delivered);
    check("dropped_oldest", r.dropped_oldest, totals_.dropped_oldest);
    check("closed_pushes", r.closed_pushes, totals_.closed_pushes);
    check("discarded", r.discarded, totals_.discarded);
    check("ticks", r.ticks, totals_.ticks);
    check("evicted_sessions", r.evicted_sessions, totals_.evicted_sessions);
    // The plane's conservation law, re-proved on every replay.
    check("pushed == delivered + dropped_oldest + discarded", r.pushed,
          totals_.delivered + totals_.dropped_oldest + totals_.discarded);
  }

  core::StreamManager manager_;
  ReplayResult result_;
  /// Pass 1: (session, sequence) -> the source's handle for that frame.
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> frames_;
  std::map<int, PushTotals> push_totals_;
  SummaryRecord totals_;  ///< recomputed; compared against the recorded summary
  std::vector<SessionBook> books_;  ///< index = recorded session id
  std::vector<core::StreamManager::Feed> feeds_;
  std::vector<core::StreamUpdate> updates_;
};

}  // namespace

TraceReplayer::TraceReplayer(const pose::PoseDbnClassifier& classifier,
                             core::PipelineParams params, ReplayOptions options)
    : classifier_(&classifier), params_(std::move(params)), options_(options) {}

ReplayResult TraceReplayer::replay(const Trace& trace) const {
  // Frame source: the loaded records themselves; a handle is a record index.
  ReplayCore core(*classifier_, params_, options_);
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    if (const auto* push = std::get_if<PushRecord>(&trace.records[i])) {
      core.index_push(*push, push->frame ? push->frame->size() : 0, i);
    }
  }
  const ReplayCore::FrameOf frame_of = [&trace](std::uint64_t handle) {
    return std::get<PushRecord>(trace.records[handle]).frame.get();
  };
  for (const TraceRecord& record : trace.records) core.replay(record, frame_of);
  return core.finish();
}

ReplayResult TraceReplayer::replay_file(const std::string& path) const {
  // Frame source: the file; a handle is a push record's offset. Pass 1 reads
  // push headers only; pass 2 skips pushes and decodes a tick's frames on
  // demand through a second reader, holding at most one tick's worth.
  ReplayCore core(*classifier_, params_, options_);
  TraceReader records(path);
  while (records.next()) {
    if (records.type() != static_cast<std::uint8_t>(RecordType::kPush)) continue;
    const PushHeader header = records.push_header();
    core.index_push(header.record, header.frame_pixels, records.offset());
  }

  TraceReader pushes(path);
  std::vector<SharedImage> tick_frames;
  const ReplayCore::FrameOf frame_of = [&pushes, &tick_frames](std::uint64_t offset) {
    pushes.seek(offset);
    if (!pushes.next()) corrupt("indexed push record vanished");
    std::optional<TraceRecord> record = pushes.record();
    tick_frames.push_back(std::get<PushRecord>(*record).frame);
    return tick_frames.back().get();
  };
  records.seek(TraceReader::kFirstRecordOffset);
  while (records.next()) {
    if (records.type() == static_cast<std::uint8_t>(RecordType::kPush)) continue;
    std::optional<TraceRecord> record = records.record();
    if (!record) continue;
    tick_frames.clear();
    core.replay(*record, frame_of);
  }
  return core.finish();
}

}  // namespace slj::replay
