#include "render/raycast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "vol/generate.h"

namespace visapult::render {
namespace {

vol::Brick full_brick(const vol::Volume& v) {
  vol::Brick b;
  b.dims = v.dims();
  return b;
}

TEST(ImageAxes, CyclicConvention) {
  vol::Axis u, v;
  image_axes_for(vol::Axis::kZ, u, v);
  EXPECT_EQ(u, vol::Axis::kX);
  EXPECT_EQ(v, vol::Axis::kY);
  image_axes_for(vol::Axis::kX, u, v);
  EXPECT_EQ(u, vol::Axis::kY);
  EXPECT_EQ(v, vol::Axis::kZ);
  image_axes_for(vol::Axis::kY, u, v);
  EXPECT_EQ(u, vol::Axis::kZ);
  EXPECT_EQ(v, vol::Axis::kX);
}

TEST(Raycast, EmptyVolumeRendersTransparent) {
  vol::Volume v({8, 8, 8}, 0.0f);
  TransferFunction tf({{0.0f, 0, 0, 0, 0.0f}, {1.0f, 1, 1, 1, 1.0f}});
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf);
  ASSERT_TRUE(img.is_ok());
  for (const auto& p : img.value().pixels()) {
    EXPECT_FLOAT_EQ(p.a, 0.0f);
  }
}

TEST(Raycast, ImageSpansTransverseExtent) {
  vol::Volume v({12, 8, 6});
  TransferFunction tf = TransferFunction::linear_grey();
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().width(), 12);
  EXPECT_EQ(img.value().height(), 8);

  auto img_x = render_brick_along_axis(v, full_brick(v), vol::Axis::kX, tf);
  ASSERT_TRUE(img_x.is_ok());
  EXPECT_EQ(img_x.value().width(), 8);   // u = Y
  EXPECT_EQ(img_x.value().height(), 6);  // v = Z
}

TEST(Raycast, DenseRegionIsBrighterThanEmpty) {
  vol::Volume v({16, 16, 8}, 0.0f);
  // Fill the left half (x < 8).
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 8; ++x) v.at(x, y, z) = 1.0f;
  TransferFunction tf = TransferFunction::linear_grey();
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf);
  ASSERT_TRUE(img.is_ok());
  EXPECT_GT(img.value().at(3, 8).a, 0.1f);
  EXPECT_LT(img.value().at(12, 8).a, 0.01f);
}

// The correctness core of object-order parallel rendering: compositing the
// slab renders front-to-back must equal rendering the full volume.
class SlabCompositing
    : public ::testing::TestWithParam<std::tuple<int, vol::Axis>> {};

TEST_P(SlabCompositing, SlabsCompositeToFullRender) {
  const auto [slabs, axis] = GetParam();
  const vol::Volume v = vol::generate_combustion({24, 20, 16}, 1);
  const TransferFunction tf = TransferFunction::fire();
  RenderOptions opts;
  opts.step = 0.5f;

  auto full = render_brick_along_axis(v, full_brick(v), axis, tf, opts);
  ASSERT_TRUE(full.is_ok());

  auto bricks = vol::slab_decompose(v.dims(), slabs, axis);
  ASSERT_TRUE(bricks.is_ok());
  core::ImageRGBA acc(full.value().width(), full.value().height());
  for (auto it = bricks.value().rbegin(); it != bricks.value().rend(); ++it) {
    auto slab_img = render_brick_along_axis(v, *it, axis, tf, opts);
    ASSERT_TRUE(slab_img.is_ok());
    ASSERT_TRUE(acc.composite_over(slab_img.value()).is_ok());
  }
  // Slab boundaries introduce small sampling differences; the images must
  // agree to a tight tolerance.
  EXPECT_LT(core::ImageRGBA::mean_abs_diff(acc, full.value()), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SlabCompositing,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(vol::Axis::kX, vol::Axis::kY,
                                         vol::Axis::kZ)));

TEST(Raycast, StepRefinementConverges) {
  const vol::Volume v = vol::generate_combustion({16, 16, 16}, 0);
  const TransferFunction tf = TransferFunction::fire();
  RenderOptions coarse, fine, finer;
  coarse.step = 2.0f;
  fine.step = 0.5f;
  finer.step = 0.25f;
  auto a = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, coarse);
  auto b = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, fine);
  auto c = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, finer);
  ASSERT_TRUE(a.is_ok() && b.is_ok() && c.is_ok());
  // Opacity correction makes successive refinements approach each other.
  const double coarse_vs_fine = core::ImageRGBA::mean_abs_diff(a.value(), b.value());
  const double fine_vs_finer = core::ImageRGBA::mean_abs_diff(b.value(), c.value());
  EXPECT_LT(fine_vs_finer, coarse_vs_fine);
}

TEST(Raycast, RotatedAtZeroAngleMatchesAxisAligned) {
  const vol::Volume v = vol::generate_combustion({16, 16, 16}, 2);
  const TransferFunction tf = TransferFunction::fire();
  RenderOptions opts;
  opts.step = 0.5f;
  auto axis = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, opts);
  auto rot = render_volume_rotated(v, vol::Axis::kZ, 0.0f, tf, opts);
  ASSERT_TRUE(axis.is_ok() && rot.is_ok());
  EXPECT_LT(core::ImageRGBA::mean_abs_diff(axis.value(), rot.value()), 0.02);
}

TEST(Raycast, RotationChangesTheImage) {
  const vol::Volume v = vol::generate_combustion({16, 16, 16}, 2);
  const TransferFunction tf = TransferFunction::fire();
  auto a = render_volume_rotated(v, vol::Axis::kZ, 0.0f, tf);
  auto b = render_volume_rotated(v, vol::Axis::kZ, 0.5f, tf);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_GT(core::ImageRGBA::mean_abs_diff(a.value(), b.value()), 1e-4);
}

TEST(Raycast, ResolutionScaleChangesImageSize) {
  vol::Volume v({10, 10, 10});
  TransferFunction tf = TransferFunction::linear_grey();
  RenderOptions opts;
  opts.resolution_scale = 2.0f;
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, opts);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().width(), 20);
  EXPECT_EQ(img.value().height(), 20);
}

TEST(Raycast, InvalidOptionsRejected) {
  vol::Volume v({4, 4, 4});
  TransferFunction tf = TransferFunction::linear_grey();
  RenderOptions bad;
  bad.step = 0.0f;
  EXPECT_FALSE(render_brick_along_axis(v, full_brick(v), vol::Axis::kZ, tf, bad).is_ok());
  EXPECT_FALSE(render_volume_rotated(v, vol::Axis::kZ, 0.0f, tf, bad).is_ok());
}

TEST(Raycast, SlabOutsideVolumeRejected) {
  vol::Volume v({4, 4, 4});
  TransferFunction tf = TransferFunction::linear_grey();
  vol::Brick bad;
  bad.z0 = 3;
  bad.dims = {4, 4, 4};
  EXPECT_FALSE(render_brick_along_axis(v, bad, vol::Axis::kZ, tf).is_ok());
}

TEST(Raycast, RowRangeRenderingFillsOnlyRequestedRows) {
  const vol::Volume v = vol::generate_combustion({8, 8, 8}, 0);
  const TransferFunction tf = TransferFunction::fire();
  core::ImageRGBA img(8, 8);
  ASSERT_TRUE(render_brick_rows(v, full_brick(v), vol::Axis::kZ, tf, {}, 2, 5, img).is_ok());
  // Row 0 untouched, rows 2..4 rendered (some alpha somewhere).
  float alpha_outside = 0.0f, alpha_inside = 0.0f;
  for (int x = 0; x < 8; ++x) {
    alpha_outside += img.at(x, 0).a;
    alpha_inside += img.at(x, 3).a;
  }
  EXPECT_FLOAT_EQ(alpha_outside, 0.0f);
  EXPECT_GT(alpha_inside, 0.0f);
}

// Hostile input: the back end renders float bytes straight off the wire,
// so one flipped exponent bit can put a NaN or an infinity in a slab.  It
// must not crash the PE, must leave the image finite, and must leave every
// ray that never reaches the bad cell's trilinear footprint exactly as it
// was.
TEST(Raycast, NonFiniteCellRendersFiniteAndLocal) {
  const vol::Dims dims{8, 8, 8};
  const vol::Dims bad{3, 4, 5};  // the bad cell; extent(a) reads its coordinate
  const TransferFunction tf = TransferFunction::fire();
  for (const vol::Volume& clean :
       {vol::Volume(dims, 0.5f), vol::generate_combustion(dims, 0)}) {
    for (float hostile : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
      vol::Volume v = clean;
      v.at(bad.nx, bad.ny, bad.nz) = hostile;
      for (vol::Axis axis : {vol::Axis::kX, vol::Axis::kY, vol::Axis::kZ}) {
        auto ref = render_brick_along_axis(clean, full_brick(v), axis, tf);
        auto img = render_brick_along_axis(v, full_brick(v), axis, tf);
        ASSERT_TRUE(ref.is_ok() && img.is_ok());
        vol::Axis ua, va;
        image_axes_for(axis, ua, va);
        // At one pixel per cell, pixel i's taps are cells i and i + 1.
        auto reaches = [&](int pixel, vol::Axis a) {
          const int n = dims.extent(a), cell = bad.extent(a);
          return std::clamp(pixel, 0, n - 1) == cell ||
                 std::clamp(pixel + 1, 0, n - 1) == cell;
        };
        for (int j = 0; j < img.value().height(); ++j) {
          for (int i = 0; i < img.value().width(); ++i) {
            const core::Pixel& p = img.value().at(i, j);
            ASSERT_TRUE(std::isfinite(p.r) && std::isfinite(p.g) &&
                        std::isfinite(p.b) && std::isfinite(p.a));
            if (!reaches(i, ua) || !reaches(j, va)) {
              EXPECT_EQ(p, ref.value().at(i, j)) << i << "," << j;
            }
          }
        }
      }
    }
  }
}

TEST(Raycast, NanWindowRendersTransparent) {
  const vol::Volume v = vol::generate_combustion({8, 8, 8}, 0);
  RenderOptions o;
  o.value_lo = std::numeric_limits<float>::quiet_NaN();
  auto img = render_brick_along_axis(v, full_brick(v), vol::Axis::kZ,
                                     TransferFunction::fire(), o);
  ASSERT_TRUE(img.is_ok());
  for (const auto& p : img.value().pixels()) EXPECT_EQ(p.a, 0.0f);
}

// A sample that classifies to alpha 0 adds nothing, whatever the colour of
// its entry: NaN colours on the transparent half of a transfer function
// must not reach the image (NaN * 0 is NaN).
TEST(Raycast, TransparentEntriesAddNothing) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const TransferFunction poisoned({{0.0f, nan, nan, nan, 0.0f},
                                   {0.5f, 0, 0, 0, 0.0f},
                                   {1.0f, 1, 1, 1, 1.0f}});
  const TransferFunction clean({{0.0f, 0, 0, 0, 0.0f},
                                {0.5f, 0, 0, 0, 0.0f},
                                {1.0f, 1, 1, 1, 1.0f}});
  const vol::Volume v = vol::generate_combustion({9, 7, 6}, 3);
  RenderOptions o;
  o.resolution_scale = 2.0f;
  for (vol::Axis axis : {vol::Axis::kX, vol::Axis::kY, vol::Axis::kZ}) {
    auto img = render_brick_along_axis(v, full_brick(v), axis, poisoned, o);
    auto ref = render_brick_along_axis(v, full_brick(v), axis, clean, o);
    ASSERT_TRUE(img.is_ok() && ref.is_ok());
    EXPECT_TRUE(img.value().pixels() == ref.value().pixels())
        << vol::axis_name(axis);
  }
}

}  // namespace
}  // namespace visapult::render
