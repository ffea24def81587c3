// Golden-output pins for the three ray marchers.
//
// Every image (and every IBRAVR offset map) below is hashed bit for bit --
// FNV-1a over its size and raw float bytes -- and compared against a value
// recorded from the straightforward per-sample march: build each sample
// point, read it with vol::Volume::sample, classify it with
// TransferFunction::classify and step-correct its opacity.  A kernel change
// that moves one bit of one pixel fails here.
//
// Regenerating: the hashing is all in this file (class Golden below).
// After an intended change of output, run the suite; each failing case
// prints the value it computed, which replaces the pinned one.
#include "render/raycast.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ibravr/ibravr.h"
#include "vol/generate.h"

namespace visapult::render {
namespace {

class Golden {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const core::ImageRGBA& img) {
    const std::int32_t wh[2] = {img.width(), img.height()};
    add_bytes(wh, sizeof wh);
    add_bytes(img.pixels().data(), img.pixels().size() * sizeof(core::Pixel));
  }
  void add(const std::vector<float>& v) {
    const auto n = static_cast<std::uint64_t>(v.size());
    add_bytes(&n, sizeof n);
    add_bytes(v.data(), v.size() * sizeof(float));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

enum class Gen { kCombustion, kCosmology };

vol::Volume golden_volume(Gen g) {
  // Uneven sides so every axis permutation is distinguishable.
  return g == Gen::kCombustion ? vol::generate_combustion({14, 11, 9}, 1)
                               : vol::generate_cosmology({13, 10, 12}, 2);
}

const char* gen_name(Gen g) {
  return g == Gen::kCombustion ? "Combustion" : "Cosmology";
}

struct Window {
  float lo, hi;
};
constexpr Window kWindows[] = {{0.0f, 1.0f}, {0.2f, 0.8f}};
constexpr float kSteps[] = {0.5f, 1.0f, 0.37f};

vol::Brick full_brick(const vol::Volume& v) {
  vol::Brick b;
  b.dims = v.dims();
  return b;
}

vol::Brick middle_slab(const vol::Volume& v, vol::Axis axis) {
  return vol::slab_decompose(v.dims(), 3, axis).value()[1];
}

// ---- render_brick_along_axis ---------------------------------------------

struct BrickCase {
  Gen gen;
  vol::Axis axis;
  bool slab;  // middle slab of 3, else the full volume
  std::uint64_t expected;
};

class BrickGolden : public ::testing::TestWithParam<BrickCase> {};

TEST_P(BrickGolden, MatchesPinnedHash) {
  const BrickCase c = GetParam();
  const vol::Volume v = golden_volume(c.gen);
  const vol::Brick brick = c.slab ? middle_slab(v, c.axis) : full_brick(v);
  const TransferFunction tfs[] = {TransferFunction::fire(),
                                  TransferFunction::density()};
  Golden h;
  for (float step : kSteps) {
    for (float scale : {1.0f, 5.0f}) {
      for (const Window& w : kWindows) {
        for (const TransferFunction& tf : tfs) {
          RenderOptions o;
          o.step = step;
          o.resolution_scale = scale;
          o.value_lo = w.lo;
          o.value_hi = w.hi;
          auto img = render_brick_along_axis(v, brick, c.axis, tf, o);
          ASSERT_TRUE(img.is_ok());
          h.add(img.value());
        }
      }
    }
  }
  EXPECT_EQ(hex(h.value()), hex(c.expected));
}

std::string brick_case_name(const ::testing::TestParamInfo<BrickCase>& info) {
  return std::string(gen_name(info.param.gen)) +
         vol::axis_name(info.param.axis) + (info.param.slab ? "Slab" : "Full");
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, BrickGolden,
    ::testing::Values(
        BrickCase{Gen::kCombustion, vol::Axis::kX, false, 0x189ed428559b9482ull},
        BrickCase{Gen::kCombustion, vol::Axis::kX, true, 0x1390fba3794c1771ull},
        BrickCase{Gen::kCombustion, vol::Axis::kY, false, 0x1c8db7caff8a3eabull},
        BrickCase{Gen::kCombustion, vol::Axis::kY, true, 0x4b439ccb66a05581ull},
        BrickCase{Gen::kCombustion, vol::Axis::kZ, false, 0x65e02e14280e9634ull},
        BrickCase{Gen::kCombustion, vol::Axis::kZ, true, 0x442ac9897f62a06bull},
        BrickCase{Gen::kCosmology, vol::Axis::kX, false, 0xf7c76920fe087fdcull},
        BrickCase{Gen::kCosmology, vol::Axis::kX, true, 0xfb99d09f0f7286c7ull},
        BrickCase{Gen::kCosmology, vol::Axis::kY, false, 0xad3f48f2568013fbull},
        BrickCase{Gen::kCosmology, vol::Axis::kY, true, 0x74caeb2df84359e9ull},
        BrickCase{Gen::kCosmology, vol::Axis::kZ, false, 0xd3e9c94cc01047f7ull},
        BrickCase{Gen::kCosmology, vol::Axis::kZ, true, 0x651f5a322d0e69f9ull}),
    brick_case_name);

// A steep transfer function makes most rays opaque within a few samples, so
// neighbouring rays cross the 0.995 cutoff at different samples: early
// termination has to be decided per ray.
TransferFunction steep_tf() {
  return TransferFunction({{0, 0, 0, 0, 0}, {1, 1, 1, 1, 50}});
}

class SteepGolden : public ::testing::TestWithParam<BrickCase> {};

TEST_P(SteepGolden, MatchesPinnedHash) {
  const BrickCase c = GetParam();
  const vol::Volume v = golden_volume(c.gen);
  const vol::Brick brick = c.slab ? middle_slab(v, c.axis) : full_brick(v);
  const TransferFunction tf = steep_tf();
  Golden h;
  int opaque = 0, translucent = 0;
  for (float step : kSteps) {
    for (float scale : {1.0f, 5.0f}) {
      for (const Window& w : kWindows) {
        RenderOptions o;
        o.step = step;
        o.resolution_scale = scale;
        o.value_lo = w.lo;
        o.value_hi = w.hi;
        auto img = render_brick_along_axis(v, brick, c.axis, tf, o);
        ASSERT_TRUE(img.is_ok());
        h.add(img.value());
        for (const core::Pixel& p : img.value().pixels()) {
          (p.a >= 0.995f ? opaque : translucent)++;
        }
      }
    }
  }
  // Both kinds of ray occur, so the cutoff really splits the images.
  EXPECT_GT(opaque, 0);
  EXPECT_GT(translucent, 0);
  EXPECT_EQ(hex(h.value()), hex(c.expected));
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, SteepGolden,
    ::testing::Values(
        BrickCase{Gen::kCombustion, vol::Axis::kX, false, 0xf06dc968a97d1555ull},
        BrickCase{Gen::kCombustion, vol::Axis::kX, true, 0xf74ca568c69e43cdull},
        BrickCase{Gen::kCombustion, vol::Axis::kY, false, 0x65f5e1d405c605b2ull},
        BrickCase{Gen::kCombustion, vol::Axis::kY, true, 0x930faa086183f06bull},
        BrickCase{Gen::kCombustion, vol::Axis::kZ, false, 0xaddf1ee4f8645bddull},
        BrickCase{Gen::kCombustion, vol::Axis::kZ, true, 0xb0a7d72c21978b13ull}),
    brick_case_name);

// Scales whose image widths leave every remainder 1-7 modulo 8 columns
// somewhere across the two volumes and three axes (scales 1 and 5 above
// leave the rest), so a kernel that steps through columns in blocks sees
// every ragged tail.
class RaggedGolden : public ::testing::TestWithParam<BrickCase> {};

TEST_P(RaggedGolden, MatchesPinnedHash) {
  const BrickCase c = GetParam();
  const vol::Volume v = golden_volume(c.gen);
  const vol::Brick brick = c.slab ? middle_slab(v, c.axis) : full_brick(v);
  const TransferFunction tfs[] = {TransferFunction::fire(),
                                  TransferFunction::density(), steep_tf()};
  Golden h;
  for (float step : {0.5f, 0.37f}) {
    for (float scale : {1.3f, 2.2f}) {
      for (const TransferFunction& tf : tfs) {
        RenderOptions o;
        o.step = step;
        o.resolution_scale = scale;
        auto img = render_brick_along_axis(v, brick, c.axis, tf, o);
        ASSERT_TRUE(img.is_ok());
        h.add(img.value());
      }
    }
  }
  EXPECT_EQ(hex(h.value()), hex(c.expected));
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, RaggedGolden,
    ::testing::Values(
        BrickCase{Gen::kCombustion, vol::Axis::kX, true, 0x69f5390dbf2405f0ull},
        BrickCase{Gen::kCombustion, vol::Axis::kY, true, 0x7e4310e687f63ab5ull},
        BrickCase{Gen::kCombustion, vol::Axis::kZ, true, 0x7c76349af0b3d10dull},
        BrickCase{Gen::kCosmology, vol::Axis::kX, true, 0xb2dd5d7c192faa35ull},
        BrickCase{Gen::kCosmology, vol::Axis::kY, true, 0x5d17e7da3dda45f2ull},
        BrickCase{Gen::kCosmology, vol::Axis::kZ, true, 0x7ea12d33ef7322f9ull}),
    brick_case_name);

// ---- render_volume_rotated and ibravr::compute_offset_map -----------------

struct AxisCase {
  Gen gen;
  vol::Axis axis;
  std::uint64_t expected;
};

std::string axis_case_name(const ::testing::TestParamInfo<AxisCase>& info) {
  return std::string(gen_name(info.param.gen)) +
         vol::axis_name(info.param.axis);
}

class RotatedGolden : public ::testing::TestWithParam<AxisCase> {};

TEST_P(RotatedGolden, MatchesPinnedHash) {
  const AxisCase c = GetParam();
  const vol::Volume v = golden_volume(c.gen);
  const TransferFunction tf = TransferFunction::fire();
  Golden h;
  for (float angle : {0.0f, 0.35f, -0.8f}) {
    for (float step : {0.5f, 0.37f}) {
      for (const Window& w : kWindows) {
        RenderOptions o;
        o.step = step;
        o.value_lo = w.lo;
        o.value_hi = w.hi;
        auto img = render_volume_rotated(v, c.axis, angle, tf, o);
        ASSERT_TRUE(img.is_ok());
        h.add(img.value());
      }
    }
  }
  EXPECT_EQ(hex(h.value()), hex(c.expected));
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, RotatedGolden,
    ::testing::Values(
        AxisCase{Gen::kCombustion, vol::Axis::kX, 0xf5b621149aa38fafull},
        AxisCase{Gen::kCombustion, vol::Axis::kY, 0xca6c47f8437c5d21ull},
        AxisCase{Gen::kCombustion, vol::Axis::kZ, 0x4774ce137ff041b1ull},
        AxisCase{Gen::kCosmology, vol::Axis::kX, 0x9d98fbd33b84e6b8ull},
        AxisCase{Gen::kCosmology, vol::Axis::kY, 0xced06855f33e09faull},
        AxisCase{Gen::kCosmology, vol::Axis::kZ, 0xe23f4c3f50c40c2bull}),
    axis_case_name);

class OffsetMapGolden : public ::testing::TestWithParam<AxisCase> {};

TEST_P(OffsetMapGolden, MatchesPinnedHash) {
  const AxisCase c = GetParam();
  const vol::Volume v = golden_volume(c.gen);
  const auto slabs = vol::slab_decompose(v.dims(), 3, c.axis).value();
  const TransferFunction tfs[] = {TransferFunction::fire(),
                                  TransferFunction::density()};
  Golden h;
  for (int s = 0; s < 3; ++s) {
    ibravr::SlabInfo info;
    info.volume_dims = v.dims();
    info.brick = slabs[static_cast<std::size_t>(s)];
    info.axis = c.axis;
    info.slab_index = s;
    info.slab_count = 3;
    for (float step : kSteps) {
      for (const Window& w : kWindows) {
        for (const TransferFunction& tf : tfs) {
          RenderOptions o;
          o.step = step;
          o.value_lo = w.lo;
          o.value_hi = w.hi;
          auto offsets = ibravr::compute_offset_map(v, info, tf, o, 7, 5);
          ASSERT_TRUE(offsets.is_ok());
          h.add(offsets.value());
        }
      }
    }
  }
  EXPECT_EQ(hex(h.value()), hex(c.expected));
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, OffsetMapGolden,
    ::testing::Values(
        AxisCase{Gen::kCombustion, vol::Axis::kX, 0xdf19777da49761deull},
        AxisCase{Gen::kCombustion, vol::Axis::kY, 0x00c29d87b691b1eeull},
        AxisCase{Gen::kCombustion, vol::Axis::kZ, 0x4ba93725fef57f6bull},
        AxisCase{Gen::kCosmology, vol::Axis::kX, 0x3730dcd4d8549170ull},
        AxisCase{Gen::kCosmology, vol::Axis::kY, 0x40c614a66fb7bc8dull},
        AxisCase{Gen::kCosmology, vol::Axis::kZ, 0x989642dd5321b4cfull}),
    axis_case_name);

// ---- row bands -------------------------------------------------------------

// The image-order driver renders screen bands with render_brick_rows; three
// uneven bands must reproduce the whole-image render exactly, on every axis.
class RowBands : public ::testing::TestWithParam<vol::Axis> {};

TEST_P(RowBands, ThreeUnevenBandsEqualWholeImage) {
  const vol::Axis axis = GetParam();
  const vol::Volume v = golden_volume(Gen::kCosmology);
  const vol::Brick slab = middle_slab(v, axis);
  const TransferFunction tf = TransferFunction::density();
  RenderOptions o;
  o.step = 0.37f;
  o.resolution_scale = 2.5f;
  auto whole = render_brick_along_axis(v, slab, axis, tf, o);
  ASSERT_TRUE(whole.is_ok());
  const int height = whole.value().height();
  ASSERT_GE(height, 6);

  core::ImageRGBA banded(whole.value().width(), height);
  const int cuts[] = {0, 1, height / 2 + 1, height};
  // Render the bands out of order: each must depend only on its own rows.
  for (int b : {2, 0, 1}) {
    ASSERT_TRUE(render_brick_rows(v, slab, axis, tf, o, cuts[b], cuts[b + 1],
                                  banded)
                    .is_ok());
  }
  EXPECT_TRUE(banded.pixels() == whole.value().pixels());
}

// At scale 5 a cell row spans five image rows (rows 2-6 sample cell row 0,
// rows 7-11 cell row 1, ...).  Bands that start and end inside cell rows
// must still reproduce the whole-image render exactly.
TEST_P(RowBands, BandsStartingMidCellRowEqualWholeImage) {
  const vol::Axis axis = GetParam();
  const vol::Volume v = golden_volume(Gen::kCombustion);
  const vol::Brick slab = middle_slab(v, axis);
  const TransferFunction tf = TransferFunction::fire();
  RenderOptions o;
  o.step = 0.5f;
  o.resolution_scale = 5.0f;
  auto whole = render_brick_along_axis(v, slab, axis, tf, o);
  ASSERT_TRUE(whole.is_ok());
  const int height = whole.value().height();
  ASSERT_GE(height, 15);

  core::ImageRGBA banded(whole.value().width(), height);
  const int cuts[] = {0, 4, 9, 10, 14, height};
  for (int b : {3, 1, 4, 0, 2}) {
    ASSERT_TRUE(render_brick_rows(v, slab, axis, tf, o, cuts[b], cuts[b + 1],
                                  banded)
                    .is_ok());
  }
  EXPECT_TRUE(banded.pixels() == whole.value().pixels());
}

INSTANTIATE_TEST_SUITE_P(Axes, RowBands,
                         ::testing::Values(vol::Axis::kX, vol::Axis::kY,
                                           vol::Axis::kZ));

}  // namespace
}  // namespace visapult::render
