#include "ibravr/ibravr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "vol/generate.h"

namespace visapult::ibravr {
namespace {

SlabInfo make_info(vol::Dims dims, int slabs, int index,
                   vol::Axis axis = vol::Axis::kZ) {
  auto bricks = vol::slab_decompose(dims, slabs, axis);
  SlabInfo info;
  info.volume_dims = dims;
  info.brick = bricks.value()[static_cast<std::size_t>(index)];
  info.axis = axis;
  info.slab_index = index;
  info.slab_count = slabs;
  return info;
}

TEST(SlabQuad, CornersAtCentrePlane) {
  const vol::Dims dims{16, 12, 8};
  const SlabInfo info = make_info(dims, 2, 0);  // z slab [0, 4)
  const auto corners = slab_quad_corners(info);
  for (const auto& c : corners) {
    EXPECT_FLOAT_EQ(c.z, 2.0f);  // centre of [0, 4)
  }
  // Spans the full transverse extent.
  EXPECT_FLOAT_EQ(corners[0].x, 0.0f);
  EXPECT_FLOAT_EQ(corners[1].x, 16.0f);
  EXPECT_FLOAT_EQ(corners[2].y, 12.0f);
}

TEST(SlabQuad, SecondSlabDeeper) {
  const vol::Dims dims{16, 12, 8};
  const auto c0 = slab_quad_corners(make_info(dims, 2, 0));
  const auto c1 = slab_quad_corners(make_info(dims, 2, 1));
  EXPECT_LT(c0[0].z, c1[0].z);
}

TEST(SlabQuad, XAxisSlabsPerpendicular) {
  const vol::Dims dims{16, 12, 8};
  const SlabInfo info = make_info(dims, 4, 1, vol::Axis::kX);
  const auto corners = slab_quad_corners(info);
  for (const auto& c : corners) {
    EXPECT_FLOAT_EQ(c.x, 6.0f);  // centre of x slab [4, 8)
  }
}

TEST(BestViewAxis, PicksDominantComponent) {
  EXPECT_EQ(best_view_axis({1, 0.1f, 0.1f}), vol::Axis::kX);
  EXPECT_EQ(best_view_axis({0.1f, -2, 0.1f}), vol::Axis::kY);
  EXPECT_EQ(best_view_axis({0, 0, 1}), vol::Axis::kZ);
}

TEST(BestViewAxis, SwitchesAt45Degrees) {
  // Rotating away from Z about the vertical: beyond 45 degrees the view
  // direction's X component dominates -> axis switch (section 3.3).
  const auto small = rotated_view_dir(vol::Axis::kZ, 0.3f);
  EXPECT_EQ(best_view_axis(small), vol::Axis::kZ);
  const auto large = rotated_view_dir(vol::Axis::kZ, 1.0f);  // ~57 deg
  EXPECT_NE(best_view_axis(large), vol::Axis::kZ);
}

TEST(RotatedViewDir, UnitLengthAndContinuous) {
  for (float angle = 0.0f; angle < 1.5f; angle += 0.1f) {
    const auto d = rotated_view_dir(vol::Axis::kZ, angle);
    EXPECT_NEAR(length(d), 1.0f, 1e-5f);
  }
  const auto d0 = rotated_view_dir(vol::Axis::kZ, 0.0f);
  EXPECT_NEAR(d0.z, 1.0f, 1e-6f);
}

TEST(OffsetMap, UniformSlabHasCentredMass) {
  // A slab of uniform material has its opacity centroid forward of the
  // geometric centre (front-to-back weighting), but symmetric across the
  // image.
  vol::Volume v({8, 8, 8}, 0.8f);
  const SlabInfo info = make_info(v.dims(), 1, 0);
  render::RenderOptions opts;
  auto offsets = compute_offset_map(v, info, render::TransferFunction::linear_grey(),
                                    opts, 4, 4);
  ASSERT_TRUE(offsets.is_ok());
  ASSERT_EQ(offsets.value().size(), 25u);
  const float first = offsets.value()[0];
  for (float o : offsets.value()) {
    EXPECT_NEAR(o, first, 1e-4f);      // uniform across the image
    EXPECT_LT(std::abs(o), 4.0f);      // within the slab half-width
  }
}

TEST(OffsetMap, EmptySlabHasZeroOffsets) {
  vol::Volume v({8, 8, 8}, 0.0f);
  const SlabInfo info = make_info(v.dims(), 1, 0);
  auto offsets = compute_offset_map(v, info, render::TransferFunction::linear_grey(),
                                    {}, 2, 2);
  ASSERT_TRUE(offsets.is_ok());
  for (float o : offsets.value()) EXPECT_FLOAT_EQ(o, 0.0f);
}

TEST(OffsetMap, TracksMaterialDepth) {
  // Material concentrated at the back of the slab -> positive offsets.
  vol::Volume v({8, 8, 8}, 0.0f);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) v.at(x, y, 7) = 1.0f;
  const SlabInfo info = make_info(v.dims(), 1, 0);
  auto offsets = compute_offset_map(v, info, render::TransferFunction::linear_grey(),
                                    {}, 2, 2);
  ASSERT_TRUE(offsets.is_ok());
  for (float o : offsets.value()) EXPECT_GT(o, 2.0f);
}

// Hostile input: a NaN cell must leave the offset map finite, and every
// mesh vertex whose ray misses the NaN's trilinear footprint unchanged.
TEST(OffsetMap, NanCellStaysFiniteAndLocal) {
  const vol::Dims dims{8, 8, 8};
  const vol::Volume clean = vol::generate_combustion(dims, 0);
  vol::Volume v = clean;
  v.at(3, 4, 5) = std::nanf("");
  const SlabInfo info = make_info(dims, 1, 0);
  const auto tf = render::TransferFunction::fire();
  auto ref = compute_offset_map(clean, info, tf, {}, 8, 8);
  auto got = compute_offset_map(v, info, tf, {}, 8, 8);
  ASSERT_TRUE(ref.is_ok() && got.is_ok());
  // Vertex i sits at cell coordinate i - 0.5: its taps are cells i-1, i.
  auto reaches = [](int vertex, int cell) {
    return std::clamp(vertex - 1, 0, 7) == cell ||
           std::clamp(vertex, 0, 7) == cell;
  };
  for (int j = 0; j <= 8; ++j) {
    for (int i = 0; i <= 8; ++i) {
      const std::size_t k = static_cast<std::size_t>(j * 9 + i);
      ASSERT_TRUE(std::isfinite(got.value()[k]));
      if (!reaches(i, 3) || !reaches(j, 4)) {
        EXPECT_EQ(got.value()[k], ref.value()[k]) << i << "," << j;
      }
    }
  }
}

TEST(MakeSlabMesh, ValidatesOffsetSize) {
  const SlabInfo info = make_info({8, 8, 8}, 1, 0);
  core::ImageRGBA tex(8, 8);
  EXPECT_FALSE(make_slab_mesh(info, tex, std::vector<float>(5, 0.0f), 2, 2).is_ok());
  EXPECT_TRUE(make_slab_mesh(info, tex, std::vector<float>(9, 0.0f), 2, 2).is_ok());
}

TEST(BuildModel, ProducesOneNodePerSlab) {
  const vol::Volume v = vol::generate_combustion({16, 12, 8}, 0);
  ModelOptions opts;
  opts.slab_count = 4;
  auto model = build_model(v, render::TransferFunction::fire(), opts);
  ASSERT_TRUE(model.is_ok());
  const auto* group = dynamic_cast<const scenegraph::GroupNode*>(model.value().get());
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->children().size(), 4u);
}

TEST(BuildModel, DepthMeshVariant) {
  const vol::Volume v = vol::generate_combustion({12, 12, 8}, 0);
  ModelOptions opts;
  opts.slab_count = 2;
  opts.depth_mesh = true;
  opts.mesh_resolution = 4;
  auto model = build_model(v, render::TransferFunction::fire(), opts);
  ASSERT_TRUE(model.is_ok());
  const auto* group = dynamic_cast<const scenegraph::GroupNode*>(model.value().get());
  ASSERT_NE(group, nullptr);
  for (const auto& child : group->children()) {
    EXPECT_NE(dynamic_cast<const scenegraph::QuadMeshNode*>(child.get()), nullptr);
  }
}

// The headline Fig. 6 property: IBRAVR matches ground truth on-axis and
// degrades as the view rotates off-axis.
TEST(Artifacts, OnAxisIsAccurate) {
  const vol::Volume v = vol::generate_combustion({24, 20, 16}, 1);
  ModelOptions opts;
  opts.slab_count = 8;
  opts.render.step = 0.5f;
  auto err = offaxis_error(v, render::TransferFunction::fire(), opts, 0.0f);
  ASSERT_TRUE(err.is_ok());
  EXPECT_LT(err.value(), 0.03);
}

TEST(Artifacts, GrowWithAngle) {
  // Thick slabs (4 over a 32-deep volume) make the Fig. 6 parallax
  // artifact unmistakable; on-axis error stays at the sampling-noise floor.
  const vol::Volume v = vol::generate_combustion({32, 24, 32}, 1);
  ModelOptions opts;
  opts.slab_count = 4;
  opts.render.step = 0.5f;
  auto sweep = artifact_sweep(v, render::TransferFunction::fire(), opts,
                              {0.0, 10.0, 25.0, 45.0});
  ASSERT_TRUE(sweep.is_ok());
  const auto& s = sweep.value();
  ASSERT_EQ(s.size(), 4u);
  // Error at 45 degrees dwarfs the on-axis error, and growth is monotone
  // once past the near-axis regime.
  EXPECT_GT(s[3].error, 2.5 * s[0].error);
  EXPECT_LE(s[1].error, s[2].error * 1.05);
  EXPECT_LE(s[2].error, s[3].error * 1.05);
  EXPECT_NEAR(s[3].relative, 1.0, 1e-9);
}

TEST(Artifacts, MoreSlabsReduceOffAxisError) {
  const vol::Volume v = vol::generate_combustion({24, 20, 16}, 1);
  ModelOptions coarse, fine;
  coarse.slab_count = 2;
  fine.slab_count = 10;
  coarse.render.step = fine.render.step = 0.5f;
  const float angle = 0.35f;  // ~20 degrees
  auto e_coarse = offaxis_error(v, render::TransferFunction::fire(), coarse, angle);
  auto e_fine = offaxis_error(v, render::TransferFunction::fire(), fine, angle);
  ASSERT_TRUE(e_coarse.is_ok() && e_fine.is_ok());
  EXPECT_LT(e_fine.value(), e_coarse.value());
}

TEST(Camera, RotatedCameraMatchesImageDims) {
  const auto cam = make_rotated_camera({32, 24, 16}, vol::Axis::kZ, 0.2f, 1.0f);
  EXPECT_EQ(cam.width, 32);
  EXPECT_EQ(cam.height, 24);
}

}  // namespace
}  // namespace visapult::ibravr
