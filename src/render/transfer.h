// Transfer functions: scalar field value -> emission colour + opacity.
//
// Classic volume rendering after Drebin/Carpenter/Hanrahan [9]: a lookup
// from normalised data value to RGBA.  Opacity is per *unit length* and is
// converted to per-sample opacity by the renderer's step correction, so
// images converge as the sampling rate changes.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/image.h"

namespace visapult::render {

struct ControlPoint {
  float value = 0.0f;  // normalised scalar in [0,1]
  float r = 0, g = 0, b = 0;
  float opacity = 0.0f;  // extinction per unit length, >= 0
};

class TransferFunction {
 public:
  static constexpr int kTableSize = 1024;

  // Control points are sorted by value internally; lookups interpolate
  // piecewise-linearly and a 1024-entry table caches the result.
  explicit TransferFunction(std::vector<ControlPoint> points);

  // Table index of a normalised value: clamped to [0,1], then the nearest
  // entry.  A NaN (a corrupt float off the wire, or a NaN data window)
  // classifies as entry 0, the transparent end of every preset.
  static int index_of(float value) {
    return static_cast<int>(index_position(value));
  }

  // index_of before its truncation toward zero.  Written once for a float
  // and for a GCC vector of floats, whose comparisons and selects act lane
  // by lane, so the vectorised ray march classifies by the same rule.
  template <class F>
  static F index_position(F v) {
    const F zero{};
    const F one = zero + 1.0f;
    v = v > zero ? v : zero;  // also NaN -> 0
    v = v < one ? v : one;
    return v * static_cast<float>(kTableSize - 1) + 0.5f;
  }

  // Classify a normalised value: straight (non-premultiplied) colour plus
  // extinction coefficient.
  ControlPoint classify(float value) const { return entry(index_of(value)); }

  // Table entry i, for i in [0, kTableSize).
  const ControlPoint& entry(int i) const {
    return table_[static_cast<std::size_t>(i)];
  }

  // Presets used by the examples and benches.
  static TransferFunction fire();     // combustion: black->red->orange->white
  static TransferFunction density();  // cosmology: transparent blue->white
  static TransferFunction linear_grey();

 private:
  std::array<ControlPoint, kTableSize> table_;
};

struct RenderOptions;

// A TransferFunction resolved for one ray march: the data window
// (value_lo, value_hi) folded into the lookup, and every entry's extinction
// step-corrected to per-sample opacity once, so classifying a raw sample
// costs one division and one table load.  operator() gives bit for bit
// what tf.classify(normalised raw) followed by opacity_for_step(opacity,
// step) gives.  Immutable once built; each march builds its own (16 KiB)
// rather than caching one in the TransferFunction, which PEs share across
// threads.
class StepClassifier {
 public:
  struct Entry {
    float r = 0, g = 0, b = 0;  // straight colour
    float alpha = 0;            // per-sample opacity for the march's step
  };

  StepClassifier(const TransferFunction& tf, const RenderOptions& options);

  const Entry& operator()(float raw) const {
    // An empty or inverted window normalises everything to 0.
    const int i =
        span_ <= 0.0f ? 0 : TransferFunction::index_of((raw - lo_) / span_);
    return entry(i);
  }

  // The pieces of operator(), for a march that classifies several rays at
  // once: the data window (value_lo, value_hi - value_lo) and entry i, for
  // i in [0, TransferFunction::kTableSize).
  float lo() const { return lo_; }
  float span() const { return span_; }
  const Entry& entry(int i) const {
    return table_[static_cast<std::size_t>(i)];
  }

 private:
  float lo_ = 0.0f;
  float span_ = 0.0f;
  std::array<Entry, TransferFunction::kTableSize> table_;
};

}  // namespace visapult::render
