#include "scenegraph/scenegraph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "scenegraph/rasterizer.h"

namespace visapult::scenegraph {
namespace {

core::ImageRGBA solid_texture(int w, int h, float r, float g, float b, float a) {
  core::ImageRGBA img(w, h);
  img.fill(core::Pixel{r * a, g * a, b * a, a});
  return img;
}

TEST(Math3d, VectorOps) {
  const Vec3f a{1, 0, 0}, b{0, 1, 0};
  EXPECT_EQ(cross(a, b), (Vec3f{0, 0, 1}));
  EXPECT_FLOAT_EQ(dot(a, b), 0.0f);
  EXPECT_FLOAT_EQ(length(Vec3f{3, 4, 0}), 5.0f);
  const Vec3f n = normalized(Vec3f{0, 0, 9});
  EXPECT_FLOAT_EQ(n.z, 1.0f);
}

TEST(Math3d, RotationYMovesXTowardMinusZ) {
  const Mat4 r = Mat4::rotation_y(static_cast<float>(M_PI / 2));
  const Vec3f out = r.transform_dir({1, 0, 0});
  EXPECT_NEAR(out.x, 0.0f, 1e-6f);
  EXPECT_NEAR(out.z, -1.0f, 1e-6f);
}

TEST(Math3d, ComposedTransformOrder) {
  // M = T * R: rotate first, then translate.
  const Mat4 m = Mat4::translation({10, 0, 0}) *
                 Mat4::rotation_z(static_cast<float>(M_PI / 2));
  const Vec3f out = m.transform_point({1, 0, 0});
  EXPECT_NEAR(out.x, 10.0f, 1e-5f);
  EXPECT_NEAR(out.y, 1.0f, 1e-5f);
}

TEST(Math3d, TransformDirIgnoresTranslation) {
  const Mat4 m = Mat4::translation({5, 5, 5});
  const Vec3f d = m.transform_dir({1, 2, 3});
  EXPECT_EQ(d, (Vec3f{1, 2, 3}));
}

TEST(Math3d, ScalingScales) {
  const Mat4 m = Mat4::scaling(2, 3, 4);
  const Vec3f p = m.transform_point({1, 1, 1});
  EXPECT_EQ(p, (Vec3f{2, 3, 4}));
}

TEST(SceneGraph, VersionBumpsPerTransaction) {
  SceneGraph sg;
  EXPECT_EQ(sg.version(), 0u);
  { auto txn = sg.begin_update(); }
  EXPECT_EQ(sg.version(), 1u);
  { auto txn = sg.begin_update(); }
  EXPECT_EQ(sg.version(), 2u);
}

TEST(SceneGraph, ChildManagement) {
  SceneGraph sg;
  {
    auto txn = sg.begin_update();
    txn.root().add_child(std::make_shared<GroupNode>("a"));
    txn.root().add_child(std::make_shared<GroupNode>("b"));
  }
  sg.visit([](const GroupNode& root) {
    ASSERT_EQ(root.children().size(), 2u);
    EXPECT_EQ(root.children()[0]->name(), "a");
  });
  {
    auto txn = sg.begin_update();
    txn.root().clear_children();
  }
  sg.visit([](const GroupNode& root) { EXPECT_TRUE(root.children().empty()); });
}

TEST(SceneGraph, ConcurrentUpdatesAreSerialized) {
  SceneGraph sg;
  constexpr int kThreads = 8, kUpdates = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kUpdates; ++i) {
        auto txn = sg.begin_update();
        txn.root().add_child(std::make_shared<GroupNode>("n"));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sg.version(), static_cast<std::uint64_t>(kThreads * kUpdates));
  sg.visit([](const GroupNode& root) {
    EXPECT_EQ(root.children().size(),
              static_cast<std::size_t>(kThreads * kUpdates));
  });
}

TEST(QuadMesh, VertexOffsetsAlongNormal) {
  QuadMeshNode mesh("m", {0, 0, 0}, {2, 0, 0}, {0, 2, 0}, 2, 2);
  mesh.set_offset(1, 1, 3.0f);
  const Vec3f centre = mesh.vertex(1, 1);
  EXPECT_FLOAT_EQ(centre.x, 1.0f);
  EXPECT_FLOAT_EQ(centre.y, 1.0f);
  EXPECT_FLOAT_EQ(centre.z, 3.0f);  // normal of (X, Y) plane is +Z
  const Vec3f corner = mesh.vertex(0, 0);
  EXPECT_FLOAT_EQ(corner.z, 0.0f);
}

Camera face_on_camera(int size = 32) {
  Camera cam;
  cam.view = Camera::make_view({1, 0, 0}, {0, 1, 0}, {0, 0, 1},
                               {static_cast<float>(size) / 2,
                                static_cast<float>(size) / 2, 0});
  cam.width = size;
  cam.height = size;
  cam.pixels_per_unit = 1.0f;
  return cam;
}

TEST(Rasterizer, OpaqueQuadFillsItsFootprint) {
  GroupNode root("root");
  auto quad = std::make_shared<TexQuadNode>(
      "q", std::array<Vec3f, 4>{Vec3f{8, 8, 0}, Vec3f{24, 8, 0},
                                Vec3f{24, 24, 0}, Vec3f{8, 24, 0}});
  quad->set_texture(solid_texture(4, 4, 1, 0, 0, 1));
  root.add_child(quad);

  Rasterizer raster(face_on_camera());
  const auto img = raster.render_node(root);
  // Inside the quad: red, opaque.
  EXPECT_NEAR(img.at(16, 16).r, 1.0f, 0.01f);
  EXPECT_NEAR(img.at(16, 16).a, 1.0f, 0.01f);
  // Outside: untouched.
  EXPECT_FLOAT_EQ(img.at(2, 2).a, 0.0f);
}

TEST(Rasterizer, DepthOrderIndependentOfInsertionOrder) {
  // Two overlapping opaque quads at different z; the nearer one (smaller
  // eye z, camera looks along +z) must win regardless of insertion order.
  auto make_scene = [&](bool near_first) {
    auto root = std::make_shared<GroupNode>("root");
    auto near_quad = std::make_shared<TexQuadNode>(
        "near", std::array<Vec3f, 4>{Vec3f{8, 8, -5}, Vec3f{24, 8, -5},
                                     Vec3f{24, 24, -5}, Vec3f{8, 24, -5}});
    near_quad->set_texture(solid_texture(2, 2, 1, 0, 0, 1));
    auto far_quad = std::make_shared<TexQuadNode>(
        "far", std::array<Vec3f, 4>{Vec3f{8, 8, 5}, Vec3f{24, 8, 5},
                                    Vec3f{24, 24, 5}, Vec3f{8, 24, 5}});
    far_quad->set_texture(solid_texture(2, 2, 0, 1, 0, 1));
    if (near_first) {
      root->add_child(near_quad);
      root->add_child(far_quad);
    } else {
      root->add_child(far_quad);
      root->add_child(near_quad);
    }
    return root;
  };
  Rasterizer raster(face_on_camera());
  const auto a = raster.render_node(*make_scene(true));
  const auto b = raster.render_node(*make_scene(false));
  EXPECT_NEAR(a.at(16, 16).r, 1.0f, 0.01f);  // near quad (red) wins
  EXPECT_EQ(core::ImageRGBA::mean_abs_diff(a, b), 0.0);
}

TEST(Rasterizer, SemiTransparentQuadsBlend) {
  GroupNode root("root");
  for (int i = 0; i < 2; ++i) {
    auto quad = std::make_shared<TexQuadNode>(
        "q" + std::to_string(i),
        std::array<Vec3f, 4>{Vec3f{8, 8, static_cast<float>(i)},
                             Vec3f{24, 8, static_cast<float>(i)},
                             Vec3f{24, 24, static_cast<float>(i)},
                             Vec3f{8, 24, static_cast<float>(i)}});
    quad->set_texture(solid_texture(2, 2, 1, 1, 1, 0.5f));
    root.add_child(quad);
  }
  Rasterizer raster(face_on_camera());
  const auto img = raster.render_node(root);
  // Two 50% layers: 1 - 0.5^2 = 0.75 accumulated alpha.
  EXPECT_NEAR(img.at(16, 16).a, 0.75f, 0.02f);
}

TEST(Rasterizer, GroupTransformMovesChildren) {
  GroupNode root("root");
  auto group = std::make_shared<GroupNode>(
      "g", Mat4::translation({8, 0, 0}));
  auto quad = std::make_shared<TexQuadNode>(
      "q", std::array<Vec3f, 4>{Vec3f{0, 12, 0}, Vec3f{8, 12, 0},
                                Vec3f{8, 20, 0}, Vec3f{0, 20, 0}});
  quad->set_texture(solid_texture(2, 2, 0, 0, 1, 1));
  group->add_child(quad);
  root.add_child(group);

  Rasterizer raster(face_on_camera());
  const auto img = raster.render_node(root);
  EXPECT_GT(img.at(12, 16).a, 0.9f);  // quad moved +8 in x
  EXPECT_FLOAT_EQ(img.at(4, 16).a, 0.0f);
}

TEST(Rasterizer, LinesDrawn) {
  GroupNode root("root");
  auto lines = std::make_shared<LinesNode>("l", Color{1, 1, 1, 1});
  lines->add_segment({4, 16, 0}, {28, 16, 0});
  root.add_child(lines);
  Rasterizer raster(face_on_camera());
  const auto img = raster.render_node(root);
  EXPECT_GT(img.at(16, 16).a, 0.9f);
  EXPECT_FLOAT_EQ(img.at(16, 8).a, 0.0f);
}

TEST(Rasterizer, QuadMeshRendersLikeFlatQuadWhenOffsetsZero) {
  auto root_mesh = std::make_shared<GroupNode>("root");
  auto mesh = std::make_shared<QuadMeshNode>("m", Vec3f{8, 8, 0},
                                             Vec3f{16, 0, 0}, Vec3f{0, 16, 0},
                                             4, 4);
  mesh->set_texture(solid_texture(2, 2, 1, 0, 1, 1));
  root_mesh->add_child(mesh);

  auto root_quad = std::make_shared<GroupNode>("root");
  auto quad = std::make_shared<TexQuadNode>(
      "q", std::array<Vec3f, 4>{Vec3f{8, 8, 0}, Vec3f{24, 8, 0},
                                Vec3f{24, 24, 0}, Vec3f{8, 24, 0}});
  quad->set_texture(solid_texture(2, 2, 1, 0, 1, 1));
  root_quad->add_child(quad);

  Rasterizer raster(face_on_camera());
  const auto a = raster.render_node(*root_mesh);
  const auto b = raster.render_node(*root_quad);
  EXPECT_LT(core::ImageRGBA::mean_abs_diff(a, b), 0.01);
}

// A quad mirrored in x is clockwise on screen; the rasterizer reorders each
// of its triangles to counter-clockwise, and the texture coordinates must
// follow their vertices.  With corners on whole pixels, a 16x16 footprint
// and an 8x8 texture of 0/1 colours every weight and texel lerp is exact,
// so the mirrored quad renders as the exact pixel mirror of the original.
TEST(Rasterizer, MirroredQuadIsPixelMirror) {
  // Two colours, laid out so that no transpose or diagonal shear of the
  // texture maps it onto itself or its mirror.
  core::ImageRGBA tex(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const bool red = x < 3 || (y == 0 && x < 6);
      tex.at(x, y) = red ? core::Pixel{1, 0, 0, 1} : core::Pixel{0, 0, 1, 1};
    }
  }
  auto render_quad = [&](float left, float right) {
    GroupNode root("root");
    auto quad = std::make_shared<TexQuadNode>(
        "q", std::array<Vec3f, 4>{Vec3f{left, 8, 0}, Vec3f{right, 8, 0},
                                  Vec3f{right, 24, 0}, Vec3f{left, 24, 0}});
    quad->set_texture(tex);
    root.add_child(quad);
    return Rasterizer(face_on_camera()).render_node(root);
  };
  const auto plain = render_quad(8, 24);
  const auto mirrored = render_quad(24, 8);  // x -> 32 - x
  ASSERT_GT(plain.at(10, 16).a, 0.0f);
  int differing = 0;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      if (mirrored.at(x, y) != plain.at(31 - x, y)) ++differing;
    }
  }
  EXPECT_EQ(differing, 0);
}

TEST(Rasterizer, EmptyTextureQuadIsSkipped) {
  GroupNode root("root");
  root.add_child(std::make_shared<TexQuadNode>(
      "q", std::array<Vec3f, 4>{Vec3f{0, 0, 0}, Vec3f{1, 0, 0},
                                Vec3f{1, 1, 0}, Vec3f{0, 1, 0}}));
  Rasterizer raster(face_on_camera());
  const auto img = raster.render_node(root);
  for (const auto& p : img.pixels()) EXPECT_FLOAT_EQ(p.a, 0.0f);
}

}  // namespace
}  // namespace visapult::scenegraph
