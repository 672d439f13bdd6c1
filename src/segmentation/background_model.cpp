#include "segmentation/background_model.hpp"

#include <algorithm>

namespace slj::seg {

void BackgroundModel::set_background(const RgbImage& frame) {
  width_ = frame.width();
  height_ = frame.height();
  const std::size_t row_len = 3 * static_cast<std::size_t>(width_);
  sums_.resize(row_len * static_cast<std::size_t>(height_));
  std::vector<std::uint8_t> ring;
  std::vector<std::uint16_t> colsum;
  std::vector<std::uint16_t> rowsum;
  for_each_window_sum_row(frame, ring, colsum, rowsum, [&](int y, const std::uint16_t* sums) {
    std::copy(sums, sums + row_len, sums_.data() + static_cast<std::size_t>(y) * row_len);
  });
  has_background_ = true;
}

}  // namespace slj::seg
