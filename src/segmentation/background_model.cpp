#include "segmentation/background_model.hpp"

#include <stdexcept>

namespace slj::seg {

BackgroundModel::BackgroundModel(int window) : window_(window) {
  if (window < 1 || window % 2 == 0) {
    throw std::invalid_argument("background window must be odd and >= 1");
  }
  // One entry per window sum 0..n·n·255; the n > 255 test keeps the
  // product far from overflow.
  const std::size_t n = static_cast<std::size_t>(window);
  if (n > 255 || n * n * 255 + 1 > kMaxMeanTableEntries) return;
  const double area = static_cast<double>(window) * static_cast<double>(window);
  mean_table_.resize(n * n * 255 + 1);
  for (std::size_t k = 0; k < mean_table_.size(); ++k) {
    mean_table_[k] = static_cast<double>(k) / area;
  }
}

void BackgroundModel::accumulate(const RgbImage& frame) {
  if (frame_count_ == 0) {
    plate_ = frame;
  } else {
    if (frame.width() != plate_.width() || frame.height() != plate_.height()) {
      throw std::invalid_argument("background frames must share one size");
    }
    // Exact integer sums: the doubles the seed summed into held the same
    // integers, so the rounded average below keeps its bits.
    const std::size_t channels = 3 * frame.size();
    auto* avg = reinterpret_cast<std::uint8_t*>(plate_.data().data());
    if (frame_count_ == 1) sums_.assign(avg, avg + channels);
    const auto* px = reinterpret_cast<const std::uint8_t*>(frame.data().data());
    const double inv = 1.0 / (frame_count_ + 1);
    for (std::size_t i = 0; i < channels; ++i) {
      sums_[i] += px[i];
      avg[i] = static_cast<std::uint8_t>(static_cast<double>(sums_[i]) * inv + 0.5);
    }
  }
  ++frame_count_;
  // The paper's n×n moving window over the rounded average, as if that
  // average were the single background frame.
  for (Image<double>* m : {&mean_.r, &mean_.g, &mean_.b}) {
    m->resize_discard(plate_.width(), plate_.height());
  }
  std::vector<std::uint16_t> colsum;
  std::vector<std::uint16_t> rowsum;
  for_each_window_mean(plate_, colsum, rowsum,
                       [this](std::size_t i, double r, double g, double b) {
                         mean_.r.data()[i] = r;
                         mean_.g.data()[i] = g;
                         mean_.b.data()[i] = b;
                       });
}

void BackgroundModel::set_background(const RgbImage& frame) {
  reset();
  accumulate(frame);
}

void BackgroundModel::reset() { frame_count_ = 0; }

const RgbMeans& BackgroundModel::averaged() const {
  if (frame_count_ == 0) throw std::logic_error("background model has no frames");
  return mean_;
}

}  // namespace slj::seg
