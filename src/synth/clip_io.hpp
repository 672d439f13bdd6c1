// Clip persistence: a clip directory holds the background plate, one PPM
// per frame, and a text manifest with the per-frame ground truth (when
// present). This is both the dataset-export format and the ingestion path
// for real footage (drop numbered PPMs + a background into a directory and
// load it; truth lines are optional).
//
// Layout:
//   <dir>/manifest.txt      header + one line per frame
//   <dir>/background.ppm
//   <dir>/frame_000.ppm ...
#pragma once

#include <cstddef>
#include <string>

#include "synth/dataset.hpp"

namespace slj::synth {

/// Writes the clip (frames + background + truth) into `dir`, creating it.
/// Clean silhouettes are not stored (they are derivable); loading a saved
/// clip leaves `clean_silhouettes` empty.
void save_clip(const Clip& clip, const std::string& dir);

/// Loads a clip directory. Frames and background are required; truth lines
/// are optional (real footage has none) — missing truth yields
/// `truth.empty()`. Throws std::runtime_error on malformed input.
Clip load_clip(const std::string& dir);

/// The directory name save_dataset gives clip `index` of `split` ("train"
/// or "test"): "train_03", "test_00".
std::string clip_dir_name(const char* split, std::size_t index);

/// Saves a whole dataset under `dir`/train_NN and `dir`/test_NN.
void save_dataset(const Dataset& dataset, const std::string& dir);

/// Loads a dataset saved by save_dataset.
Dataset load_dataset(const std::string& dir);

}  // namespace slj::synth
