#include "replay/trace_format.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace slj::replay {

namespace {

// ---- primitive encoding ----------------------------------------------------
// Integers are emitted byte-by-byte little-endian, so traces are portable
// across hosts and nothing ever aliases a misaligned pointer.

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v & 0xff));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i32(std::string& out, std::int32_t v) { put_u32(out, static_cast<std::uint32_t>(v)); }
void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

/// Doubles travel as their IEEE-754 bit pattern: the whole point of the
/// trace is bit-identical replay, so posteriors must survive the round trip
/// exactly (including -0.0 and every last ulp).
void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("trace: ") + what);
}

/// Bounds-checked cursor over one record payload. Every read validates the
/// remaining length first, so a truncated or bit-flipped payload surfaces
/// as std::runtime_error instead of an out-of-bounds read.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() {
    std::uint16_t v = u8();
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(u8()) << 8));
    return v;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next `n` bytes as one bounds-checked span.
  const char* take(std::size_t n) {
    need(n);
    const char* span = data_ + pos_;
    pos_ += n;
    return span;
  }

  void done() {
    if (pos_ != size_) fail("record payload has trailing bytes");
  }

 private:
  void need(std::size_t n) {
    if (size_ - pos_ < n) fail("truncated record payload");
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- enum validation -------------------------------------------------------
// Every enum read back from disk is range-checked before the cast; a flipped
// bit in a policy or pose byte must become a clean load error, not a value
// that switches over UB later.

ingest::BackpressurePolicy policy_from_u8(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(ingest::BackpressurePolicy::kRejectNewest)) {
    fail("invalid backpressure policy");
  }
  return static_cast<ingest::BackpressurePolicy>(v);
}

ingest::PushOutcome outcome_from_u8(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(ingest::PushOutcome::kClosed)) fail("invalid push outcome");
  return static_cast<ingest::PushOutcome>(v);
}

/// kUnknown (the "nothing cleared the threshold" sentinel) is a legitimate
/// recorded value, so the valid range is one wider than the catalogue.
pose::PoseId pose_from_u8(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(pose::PoseId::kUnknown)) fail("invalid pose id");
  return static_cast<pose::PoseId>(v);
}

pose::Stage stage_from_u8(std::uint8_t v) {
  if (v >= pose::kStageCount) fail("invalid stage");
  return static_cast<pose::Stage>(v);
}

core::FaultRule rule_from_u8(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(core::FaultRule::kCompleteSequence)) {
    fail("invalid fault rule");
  }
  return static_cast<core::FaultRule>(v);
}

// ---- images ----------------------------------------------------------------
// mode u8 (0 = raw RGB, 1 = RLE) | u32 width | u32 height | pixel data.
// RLE is (u16 run_length, r, g, b) repeated; runs must tile the image
// exactly. Synthetic studio frames are flat-colour regions, so RLE wins by
// ~50x and keeps the checked-in corpus small; the encoder falls back to raw
// whenever RLE would be larger (noisy real footage).

constexpr std::uint8_t kImageRaw = 0;
constexpr std::uint8_t kImageRle = 1;

void put_image(std::string& out, const RgbImage& image) {
  // Never write what the reader would refuse.
  if (static_cast<std::uint32_t>(image.width()) > kMaxTraceImageDimension ||
      static_cast<std::uint32_t>(image.height()) > kMaxTraceImageDimension) {
    fail("image dimensions out of range");
  }
  const std::size_t pixels = image.size();
  const Rgb* data = image.data().data();
  // RLE is tried first and abandoned as soon as it stops beating raw, so a
  // noisy frame costs one short scan, not a 4-bytes-per-pixel detour.
  std::string rle;
  std::size_t i = 0;
  while (i < pixels && rle.size() < pixels * 3) {
    const Rgb value = data[i];
    std::size_t run = 1;
    while (i + run < pixels && run < 0xffff && data[i + run] == value) ++run;
    put_u16(rle, static_cast<std::uint16_t>(run));
    put_u8(rle, value.r);
    put_u8(rle, value.g);
    put_u8(rle, value.b);
    i += run;
  }
  const bool use_rle = rle.size() < pixels * 3;
  put_u8(out, use_rle ? kImageRle : kImageRaw);
  put_u32(out, static_cast<std::uint32_t>(image.width()));
  put_u32(out, static_cast<std::uint32_t>(image.height()));
  if (use_rle) {
    out += rle;
    return;
  }
  const std::size_t at = out.size();
  out.resize(at + pixels * 3);
  char* raw = out.data() + at;
  for (std::size_t p = 0; p < pixels; ++p) {
    raw[3 * p] = static_cast<char>(data[p].r);
    raw[3 * p + 1] = static_cast<char>(data[p].g);
    raw[3 * p + 2] = static_cast<char>(data[p].b);
  }
}

/// A null image is written as an empty one.
void put_image(std::string& out, const SharedImage& image) {
  static const RgbImage kEmpty;
  put_image(out, image ? *image : kEmpty);
}

struct ImageHeader {
  std::uint8_t mode = kImageRaw;
  std::uint32_t width = 0;
  std::uint32_t height = 0;
};

ImageHeader get_image_header(ByteReader& in) {
  ImageHeader header;
  header.mode = in.u8();
  if (header.mode != kImageRaw && header.mode != kImageRle) fail("invalid image mode");
  header.width = in.u32();
  header.height = in.u32();
  if (header.width > kMaxTraceImageDimension || header.height > kMaxTraceImageDimension) {
    fail("image dimensions out of range");
  }
  return header;
}

RgbImage get_image(ByteReader& in) {
  const ImageHeader header = get_image_header(in);
  RgbImage image(static_cast<int>(header.width), static_cast<int>(header.height));
  const std::size_t pixels = image.size();
  if (header.mode == kImageRaw) {
    const char* raw = in.take(pixels * 3);
    Rgb* data = image.data().data();
    for (std::size_t i = 0; i < pixels; ++i) {
      data[i].r = static_cast<std::uint8_t>(raw[3 * i]);
      data[i].g = static_cast<std::uint8_t>(raw[3 * i + 1]);
      data[i].b = static_cast<std::uint8_t>(raw[3 * i + 2]);
    }
    return image;
  }
  std::size_t filled = 0;
  while (filled < pixels) {
    const std::uint16_t run = in.u16();
    if (run == 0 || run > pixels - filled) fail("invalid image run length");
    Rgb value;
    value.r = in.u8();
    value.g = in.u8();
    value.b = in.u8();
    std::fill_n(image.data().begin() + static_cast<std::ptrdiff_t>(filled), run, value);
    filled += run;
  }
  return image;
}

/// An empty image reads back as null.
SharedImage get_shared_image(ByteReader& in) {
  RgbImage image = get_image(in);
  if (image.empty()) return nullptr;
  return std::make_shared<const RgbImage>(std::move(image));
}

// ---- domain payloads -------------------------------------------------------

void put_result(std::string& out, const pose::FrameResult& r) {
  put_u8(out, static_cast<std::uint8_t>(r.pose));
  put_u8(out, static_cast<std::uint8_t>(r.best_pose));
  put_f64(out, r.posterior);
  put_u8(out, static_cast<std::uint8_t>(r.stage));
  put_i32(out, r.candidate_index);
}

pose::FrameResult get_result(ByteReader& in) {
  pose::FrameResult r;
  r.pose = pose_from_u8(in.u8());
  r.best_pose = pose_from_u8(in.u8());
  r.posterior = in.f64();
  r.stage = stage_from_u8(in.u8());
  r.candidate_index = in.i32();
  return r;
}

void put_finding(std::string& out, const core::FaultFinding& f) {
  put_u8(out, static_cast<std::uint8_t>(f.rule));
  put_u8(out, f.passed ? 1 : 0);
  put_u16(out, static_cast<std::uint16_t>(f.evidence_frames.size()));
  for (const int frame : f.evidence_frames) put_i32(out, frame);
}

core::FaultFinding get_finding(ByteReader& in) {
  core::FaultFinding f;
  f.rule = rule_from_u8(in.u8());
  f.passed = in.u8() != 0;
  const std::uint16_t evidence = in.u16();
  if (evidence > core::kMaxEvidenceFramesPerRule) fail("finding evidence list too long");
  f.evidence_frames.reserve(evidence);
  for (std::uint16_t i = 0; i < evidence; ++i) f.evidence_frames.push_back(in.i32());
  return f;
}

void put_update(std::string& out, const core::StreamUpdate& u) {
  put_u64(out, u.frame_index);
  put_u8(out, u.airborne ? 1 : 0);
  put_result(out, u.result);
  put_u16(out, static_cast<std::uint16_t>(u.resolved.size()));
  for (const core::ResolvedFault& rf : u.resolved) {
    put_finding(out, rf.finding);
    put_i32(out, rf.frame);
  }
}

/// A frame can resolve every rule at most twice (early FAIL + correcting
/// PASS), so anything past 2 * rule-count findings is corruption.
constexpr std::uint16_t kMaxResolvedPerFrame = 16;

core::StreamUpdate get_update(ByteReader& in) {
  core::StreamUpdate u;
  u.frame_index = in.u64();
  u.airborne = in.u8() != 0;
  u.result = get_result(in);
  const std::uint16_t resolved = in.u16();
  if (resolved > kMaxResolvedPerFrame) fail("resolved-fault list too long");
  u.resolved.reserve(resolved);
  for (std::uint16_t i = 0; i < resolved; ++i) {
    core::ResolvedFault rf;
    rf.finding = get_finding(in);
    rf.frame = in.i32();
    u.resolved.push_back(std::move(rf));
  }
  return u;
}

void put_report(std::string& out, const core::JumpReport& report) {
  put_u16(out, static_cast<std::uint16_t>(report.findings.size()));
  for (const core::FaultFinding& f : report.findings) put_finding(out, f);
}

constexpr std::uint16_t kMaxReportFindings = 16;

core::JumpReport get_report(ByteReader& in) {
  core::JumpReport report;
  const std::uint16_t findings = in.u16();
  if (findings > kMaxReportFindings) fail("report finding list too long");
  report.findings.reserve(findings);
  for (std::uint16_t i = 0; i < findings; ++i) report.findings.push_back(get_finding(in));
  return report;
}

void put_session_config(std::string& out, const TraceSessionConfig& c) {
  put_u64(out, c.queue_capacity);
  put_u8(out, static_cast<std::uint8_t>(c.policy));
  put_f64(out, c.rate_tokens_per_second);
  put_f64(out, c.rate_burst);
  put_i64(out, c.idle_timeout_ns);
  put_u8(out, 0);  // decoder: the classifier's online rule is the only one
  put_u8(out, 0);  // tracker: the largest component is the only jumper rule
  put_i32(out, core::GroundMonitor::kLiftThresholdPx);
  put_i32(out, core::GroundMonitor::kCalibrationFrames);
}

TraceSessionConfig get_session_config(ByteReader& in) {
  TraceSessionConfig c;
  c.queue_capacity = in.u64();
  c.policy = policy_from_u8(in.u8());
  c.rate_tokens_per_second = in.f64();
  c.rate_burst = in.f64();
  c.idle_timeout_ns = in.i64();
  // The decoder and tracker bytes and the ground line's knobs are
  // constants, still written for format compatibility; any other value is a
  // corrupt record.
  if (in.u8() != 0) fail("invalid decoder");
  if (in.u8() != 0) fail("invalid tracker");
  if (in.i32() != core::GroundMonitor::kLiftThresholdPx) fail("invalid ground lift threshold");
  if (in.i32() != core::GroundMonitor::kCalibrationFrames) {
    fail("invalid ground calibration frame count");
  }
  return c;
}

/// Session ids are dense small indices; a huge one is a corrupt record, and
/// catching it here keeps downstream session tables from resizing to it.
int get_session_id(ByteReader& in) {
  const std::int32_t id = in.i32();
  if (id < 0 || id > (1 << 20)) fail("session id out of range");
  return id;
}

// ---- record payloads -------------------------------------------------------

void put_open(std::string& out, const OpenRecord& r) {
  put_i64(out, r.t_ns);
  put_i32(out, r.session);
  put_session_config(out, r.config);
  put_image(out, r.background);
}

OpenRecord get_open(ByteReader& in) {
  OpenRecord r;
  r.t_ns = in.i64();
  r.session = get_session_id(in);
  r.config = get_session_config(in);
  r.background = get_shared_image(in);
  return r;
}

void put_push(std::string& out, const PushRecord& r) {
  put_i64(out, r.t_ns);
  put_i32(out, r.session);
  put_u8(out, static_cast<std::uint8_t>(r.outcome));
  put_u64(out, r.sequence);
  put_image(out, r.frame);
}

/// Every push field ahead of the image.
PushRecord get_push_fields(ByteReader& in) {
  PushRecord r;
  r.t_ns = in.i64();
  r.session = get_session_id(in);
  r.outcome = outcome_from_u8(in.u8());
  r.sequence = in.u64();
  return r;
}

/// Bytes of a push payload up to and including the image header.
constexpr std::size_t kPushHeaderBytes = 8 + 4 + 1 + 8 + 1 + 4 + 4;

PushRecord get_push(ByteReader& in) {
  PushRecord r = get_push_fields(in);
  r.frame = get_shared_image(in);
  return r;
}

void put_tick(std::string& out, const TickRecord& r) {
  put_i64(out, r.t_ns);
  put_u32(out, static_cast<std::uint32_t>(r.entries.size()));
  for (const TickEntry& e : r.entries) {
    put_i32(out, e.session);
    put_u64(out, e.sequence);
    put_update(out, e.update);
  }
}

TickRecord get_tick(ByteReader& in) {
  TickRecord r;
  r.t_ns = in.i64();
  const std::uint32_t entries = in.u32();
  // One entry per session per tick; a count past any plausible session
  // fan-out is corruption (and each entry needs bytes anyway).
  if (entries > (1u << 20)) fail("tick entry count out of range");
  r.entries.reserve(entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    TickEntry e;
    e.session = get_session_id(in);
    e.sequence = in.u64();
    e.update = get_update(in);
    r.entries.push_back(std::move(e));
  }
  return r;
}

void put_close(std::string& out, const CloseRecord& r) {
  put_i64(out, r.t_ns);
  put_i32(out, r.session);
  put_u8(out, r.evicted ? 1 : 0);
  put_u64(out, r.discarded);
  put_report(out, r.report);
}

CloseRecord get_close(ByteReader& in) {
  CloseRecord r;
  r.t_ns = in.i64();
  r.session = get_session_id(in);
  r.evicted = in.u8() != 0;
  r.discarded = in.u64();
  r.report = get_report(in);
  return r;
}

void put_summary(std::string& out, const SummaryRecord& r) {
  put_i64(out, r.t_ns);
  put_u64(out, r.pushed);
  put_u64(out, r.delivered);
  put_u64(out, r.dropped_oldest);
  put_u64(out, r.rejected);
  put_u64(out, r.rate_limited);
  put_u64(out, r.closed_pushes);
  put_u64(out, r.discarded);
  put_u64(out, r.ticks);
  put_u64(out, r.evicted_sessions);
}

SummaryRecord get_summary(ByteReader& in) {
  SummaryRecord r;
  r.t_ns = in.i64();
  r.pushed = in.u64();
  r.delivered = in.u64();
  r.dropped_oldest = in.u64();
  r.rejected = in.u64();
  r.rate_limited = in.u64();
  r.closed_pushes = in.u64();
  r.discarded = in.u64();
  r.ticks = in.u64();
  r.evicted_sessions = in.u64();
  return r;
}

RecordType type_of(const TraceRecord& record) {
  switch (record.index()) {
    case 0: return RecordType::kOpen;
    case 1: return RecordType::kPush;
    case 2: return RecordType::kTick;
    case 3: return RecordType::kClose;
    default: return RecordType::kSummary;
  }
}

/// Decodes one payload of a known type; nullopt for an unknown one.
std::optional<TraceRecord> decode_payload(std::uint8_t type, ByteReader& in) {
  std::optional<TraceRecord> record;
  switch (static_cast<RecordType>(type)) {
    case RecordType::kOpen: record = get_open(in); break;
    case RecordType::kPush: record = get_push(in); break;
    case RecordType::kTick: record = get_tick(in); break;
    case RecordType::kClose: record = get_close(in); break;
    case RecordType::kSummary: record = get_summary(in); break;
    default: return std::nullopt;
  }
  in.done();
  return record;
}

void encode_into(std::string& out, const TraceRecord& record) {
  std::visit(
      [&out](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, OpenRecord>) put_open(out, r);
        else if constexpr (std::is_same_v<T, PushRecord>) put_push(out, r);
        else if constexpr (std::is_same_v<T, TickRecord>) put_tick(out, r);
        else if constexpr (std::is_same_v<T, CloseRecord>) put_close(out, r);
        else put_summary(out, r);
      },
      record);
}

}  // namespace

TraceSessionConfig to_trace_config(const ingest::IngestSessionConfig& config) {
  TraceSessionConfig c;
  c.queue_capacity = config.queue.capacity;
  c.policy = config.queue.policy;
  c.rate_tokens_per_second = config.queue.rate.tokens_per_second;
  c.rate_burst = config.queue.rate.burst;
  c.idle_timeout_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(config.idle_timeout).count();
  return c;
}

std::string encode_record(const TraceRecord& record) {
  std::string out;
  encode_into(out, record);
  return out;
}

// ---- TraceWriter -----------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path) : path_(path) {
  auto* out = new std::ofstream(path, std::ios::binary | std::ios::trunc);
  if (!*out) {
    delete out;
    throw std::runtime_error("trace: cannot open '" + path + "' for writing");
  }
  out->write(kTraceMagic, sizeof(kTraceMagic));
  std::string header;
  put_u32(header, kTraceVersion);
  out->write(header.data(), static_cast<std::streamsize>(header.size()));
  out_ = out;
}

TraceWriter::~TraceWriter() {
  auto* out = static_cast<std::ofstream*>(out_);
  delete out;  // destructor swallows late I/O errors; finish() reports them
}

void TraceWriter::append(const TraceRecord& record) {
  auto* out = static_cast<std::ofstream*>(out_);
  if (out == nullptr) throw std::logic_error("trace: append after finish");
  scratch_.clear();
  encode_into(scratch_, record);
  if (scratch_.size() > kMaxRecordBytes) {
    // Unwritable by construction given the image caps; guard anyway so the
    // format invariant (every stored length is loadable) cannot be broken.
    throw std::runtime_error("trace: record exceeds kMaxRecordBytes");
  }
  std::string prefix;
  put_u32(prefix, static_cast<std::uint32_t>(scratch_.size()));
  put_u8(prefix, static_cast<std::uint8_t>(type_of(record)));
  out->write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  out->write(scratch_.data(), static_cast<std::streamsize>(scratch_.size()));
  if (!*out) throw std::runtime_error("trace: write failed on '" + path_ + "'");
}

void TraceWriter::finish() {
  auto* out = static_cast<std::ofstream*>(out_);
  if (out == nullptr) return;
  out->flush();
  const bool ok = static_cast<bool>(*out);
  delete out;
  out_ = nullptr;
  if (!ok) throw std::runtime_error("trace: flush failed on '" + path_ + "'");
}

// ---- TraceReader -----------------------------------------------------------

TraceReader::TraceReader(const std::string& path)
    : in_(std::make_unique<std::ifstream>(path, std::ios::binary)) {
  if (!*in_) throw std::runtime_error("trace: cannot open '" + path + "'");
  in_->seekg(0, std::ios::end);
  size_ = static_cast<std::uint64_t>(in_->tellg());
  in_->seekg(0);
  if (size_ < kFirstRecordOffset) fail("file too short for header");
  char header[kFirstRecordOffset];
  in_->read(header, sizeof(header));
  if (!*in_) fail("file too short for header");
  stream_pos_ = kFirstRecordOffset;
  ByteReader fields(header, sizeof(header));
  char magic[sizeof(kTraceMagic)];
  for (char& c : magic) c = static_cast<char>(fields.u8());
  if (std::memcmp(magic, kTraceMagic, sizeof(kTraceMagic)) != 0) fail("bad magic");
  if (fields.u32() != kTraceVersion) fail("unsupported version");
}

TraceReader::~TraceReader() = default;

void TraceReader::seek(std::uint64_t offset) { next_ = offset; }

bool TraceReader::next() {
  if (next_ == size_) return false;
  if (next_ > size_ || size_ - next_ < 5) fail("truncated record prefix");
  if (stream_pos_ != next_) in_->seekg(static_cast<std::streamoff>(next_));
  char prefix_bytes[5];
  in_->read(prefix_bytes, sizeof(prefix_bytes));
  if (!*in_) fail("read failed");
  ByteReader prefix(prefix_bytes, sizeof(prefix_bytes));
  const std::uint32_t length = prefix.u32();
  const std::uint8_t type = prefix.u8();
  if (length > kMaxRecordBytes) fail("record length out of range");
  offset_ = next_;
  stream_pos_ = offset_ + 5;
  if (size_ - stream_pos_ < length) fail("truncated record payload");
  length_ = length;
  type_ = type;
  next_ = stream_pos_ + length;
  return true;
}

void TraceReader::read_payload(std::size_t max_bytes) {
  const std::uint64_t start = offset_ + 5;
  if (stream_pos_ != start) in_->seekg(static_cast<std::streamoff>(start));
  payload_.resize(std::min<std::size_t>(length_, max_bytes));
  in_->read(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  if (!*in_) fail("read failed");
  stream_pos_ = start + payload_.size();
}

std::optional<TraceRecord> TraceReader::record() {
  read_payload(length_);
  ByteReader payload(payload_.data(), payload_.size());
  return decode_payload(type_, payload);
}

PushHeader TraceReader::push_header() {
  if (type_ != static_cast<std::uint8_t>(RecordType::kPush)) fail("not a push record");
  read_payload(kPushHeaderBytes);
  ByteReader payload(payload_.data(), payload_.size());
  PushHeader header;
  header.record = get_push_fields(payload);
  const ImageHeader image = get_image_header(payload);
  header.frame_pixels = static_cast<std::size_t>(image.width) * image.height;
  return header;
}

// ---- whole-file load/save --------------------------------------------------

Trace load_trace(const std::string& path) {
  TraceReader reader(path);
  Trace trace;
  while (reader.next()) {
    if (std::optional<TraceRecord> record = reader.record()) {
      trace.records.push_back(std::move(*record));
    }
  }
  return trace;
}

void save_trace(const Trace& trace, const std::string& path) {
  TraceWriter writer(path);
  for (const TraceRecord& record : trace.records) writer.append(record);
  writer.finish();
}

}  // namespace slj::replay
