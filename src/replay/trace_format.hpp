// The .sljtrace container: a live ingest run serialized as a versioned
// stream of length-prefixed binary records, so any production incident can
// be re-driven later as a deterministic regression test.
//
// Layout (all integers little-endian):
//
//   8 bytes   magic "SLJTRACE"
//   u32       version (kTraceVersion)
//   repeated  records:  u32 payload_length | u8 type | payload
//
// This is the clip_io framing idiom (magic + version up front, hard
// validation on load) applied to a binary stream: a reader can skip record
// types it does not know, and every length is bounds-checked against
// kMaxRecordBytes before any allocation, so truncated files, bit-flipped
// headers and oversized length prefixes all fail with std::runtime_error —
// never UB (pinned by the fuzz tests in tests/test_replay.cpp).
//
// Record types — together they fully determine a run:
//   kOpen     session opened: timestamp, id, queue+session config, background
//   kPush     one push attempt: timestamp, id, outcome, queue sequence, frame
//   kTick     one scheduler round: per-entry (session, sequence) provenance
//             plus the full StreamUpdate it produced (the golden output)
//   kClose    session closed/evicted: final JumpReport (with its shed-frame
//             count) + discarded count
//   kSummary  run totals, built by the writer from the records it wrote; the
//             recording caller checks them against the live IngestMetrics
//             (the drop-accounting golden record)
//
// Frame payloads are run-length encoded per pixel run when that is smaller
// than raw RGB (synthetic studio footage compresses ~50×), so a mini trace
// corpus is cheap to check into the repository.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/faults.hpp"
#include "core/stream_engine.hpp"
#include "imaging/image.hpp"
#include "ingest/ingest_router.hpp"

namespace slj::replay {

inline constexpr char kTraceMagic[8] = {'S', 'L', 'J', 'T', 'R', 'A', 'C', 'E'};
/// Readers accept only this version. In version 2 an open record's queue
/// config is its capacity and idle timeout (drop-oldest is the only
/// policy), and a close record's report carries frames_shed.
inline constexpr std::uint32_t kTraceVersion = 2;
/// Upper bound on one record's payload; a length prefix beyond it is
/// rejected before any buffer is sized from it.
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 26;  // 64 MiB
/// Upper bound on a traced frame's width/height (matches image_io's cap).
inline constexpr std::uint32_t kMaxTraceImageDimension = 1u << 15;

enum class RecordType : std::uint8_t {
  kOpen = 1,
  kPush = 2,
  kTick = 3,
  kClose = 4,
  kSummary = 5,
};

/// The slice of IngestSessionConfig a trace preserves — everything the
/// replayer needs to rebuild the session. (PipelineParams and the trained
/// model are deliberately *not* stored: replay must be given the same
/// classifier/params the recording ran with, exactly like any golden test.)
struct TraceSessionConfig {
  std::uint64_t queue_capacity = 8;
  std::int64_t idle_timeout_ns = 0;
};

TraceSessionConfig to_trace_config(const ingest::IngestSessionConfig& config);

/// Pixels in a record are immutable and shared: copying a record (a
/// flight-recorder snapshot, a Trace) copies a pointer, never the image.
using SharedImage = std::shared_ptr<const RgbImage>;

/// Timestamps are nanoseconds relative to the recording's first event.
struct OpenRecord {
  std::int64_t t_ns = 0;
  int session = -1;
  TraceSessionConfig config;
  SharedImage background;
};

struct PushRecord {
  std::int64_t t_ns = 0;
  int session = -1;
  ingest::PushOutcome outcome = ingest::PushOutcome::kAccepted;
  /// Queue admission index; meaningful only when push_accepted(outcome).
  std::uint64_t sequence = 0;
  /// The offered pixels. Stored only for admitted frames (a refused frame
  /// never influences the run); null otherwise. An empty image is written
  /// for null and read back as null.
  SharedImage frame;
};

struct TickEntry {
  int session = -1;
  std::uint64_t sequence = 0;       ///< which admitted frame advanced the session
  core::StreamUpdate update;        ///< the golden output for that frame
};

struct TickRecord {
  std::int64_t t_ns = 0;
  std::vector<TickEntry> entries;
};

struct CloseRecord {
  std::int64_t t_ns = 0;
  int session = -1;
  bool evicted = false;             ///< idle-timeout eviction vs explicit close
  std::uint64_t discarded = 0;      ///< queued frames dropped un-analysed
  core::JumpReport report;          ///< the golden final report
};

struct SummaryRecord {
  std::int64_t t_ns = 0;
  std::uint64_t pushed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_oldest = 0;
  std::uint64_t closed_pushes = 0;
  std::uint64_t discarded = 0;
  std::uint64_t ticks = 0;
  std::uint64_t evicted_sessions = 0;
};

using TraceRecord = std::variant<OpenRecord, PushRecord, TickRecord, CloseRecord, SummaryRecord>;

struct Trace {
  std::uint32_t version = kTraceVersion;
  std::vector<TraceRecord> records;
};

/// Streaming writer: header on open, one length-prefixed record per
/// append(). Not internally synchronized (the caller serializes).
/// Throws std::runtime_error on I/O failure.
class TraceWriter {
 public:
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();

  void append(const TraceRecord& record);

  /// Flushes and closes the stream; append() is invalid afterwards.
  void finish();

 private:
  std::string path_;
  void* out_ = nullptr;  ///< std::ofstream, kept out of the header
  std::string scratch_;  ///< payload assembly buffer, reused per record
};

/// Serializes one record as payload bytes (without the length/type prefix).
/// Exposed for tests that craft corrupt records.
std::string encode_record(const TraceRecord& record);

/// A kPush record read up to its image header, pixels skipped: what an index
/// over a trace's frames needs. `record.frame` stays null.
struct PushHeader {
  PushRecord record;
  std::size_t frame_pixels = 0;  ///< width * height the image header declares
};

/// Reads a .sljtrace one length-prefixed record at a time. next() reads and
/// bounds-checks only the 5-byte prefix (the length against kMaxRecordBytes
/// and against the bytes left in the file); the payload is read when asked
/// for and skipped otherwise. offset()/seek() revisit a record found on an
/// earlier pass. Any structural violation throws std::runtime_error.
class TraceReader {
 public:
  /// Opens `path` and validates the magic and version.
  explicit TraceReader(const std::string& path);
  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Offset of the first record, just past the file header.
  static constexpr std::uint64_t kFirstRecordOffset = sizeof(kTraceMagic) + 4;

  /// Advances to the next record; false at a clean end of file.
  bool next();
  /// File offset of the current record's length prefix.
  std::uint64_t offset() const { return offset_; }
  /// Raw type byte of the current record (possibly a type this reader does
  /// not know).
  std::uint8_t type() const { return type_; }

  /// Decodes the current record; nullopt for an unknown type, which a newer
  /// writer may have added (the length prefix lets readers hop over it).
  std::optional<TraceRecord> record();
  /// The current record, which must be a kPush, without its pixels.
  PushHeader push_header();
  /// Makes the next call to next() read the record at `offset`, an offset()
  /// seen earlier in the same file.
  void seek(std::uint64_t offset);

 private:
  /// Reads up to `max_bytes` of the current payload into payload_.
  void read_payload(std::size_t max_bytes);

  std::unique_ptr<std::ifstream> in_;
  std::uint64_t size_ = 0;       ///< file size in bytes
  std::uint64_t stream_pos_ = 0;  ///< where the stream is positioned
  std::uint64_t offset_ = 0;      ///< current record's prefix offset
  std::uint64_t next_ = kFirstRecordOffset;  ///< the following record's offset
  std::uint32_t length_ = 0;      ///< current payload length
  std::uint8_t type_ = 0;
  std::string payload_;           ///< payload scratch, reused per record
};

/// Loads a whole trace into memory: a loop over TraceReader. Unknown record
/// types are skipped (a newer writer's trace still replays); any structural
/// violation — truncation, bad magic/version, oversized length prefix,
/// malformed payload — throws std::runtime_error.
Trace load_trace(const std::string& path);

/// Writes `trace` with TraceWriter framing (round-trip of load_trace).
void save_trace(const Trace& trace, const std::string& path);

}  // namespace slj::replay
