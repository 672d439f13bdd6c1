#include "segmentation/background_model.hpp"

#include <stdexcept>

namespace slj::seg {

BackgroundModel::BackgroundModel() : mean_table_(kMeanTableEntries) {
  constexpr double area = static_cast<double>(kWindow) * static_cast<double>(kWindow);
  for (std::size_t k = 0; k < mean_table_.size(); ++k) {
    mean_table_[k] = static_cast<double>(k) / area;
  }
}

void BackgroundModel::set_background(const RgbImage& frame) {
  for (Image<double>* m : {&mean_.r, &mean_.g, &mean_.b}) {
    m->resize_discard(frame.width(), frame.height());
  }
  std::vector<std::uint16_t> colsum;
  std::vector<std::uint16_t> rowsum;
  for_each_window_mean(frame, colsum, rowsum, [this](std::size_t i, double r, double g, double b) {
    mean_.r.data()[i] = r;
    mean_.g.data()[i] = g;
    mean_.b.data()[i] = b;
  });
  has_background_ = true;
}

void BackgroundModel::reset() { has_background_ = false; }

const RgbMeans& BackgroundModel::averaged() const {
  if (!has_background_) throw std::logic_error("background model has no frames");
  return mean_;
}

}  // namespace slj::seg
