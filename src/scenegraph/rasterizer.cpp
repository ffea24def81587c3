#include "scenegraph/rasterizer.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace visapult::scenegraph {

namespace {

struct EyeVertex {
  Vec3f pos;   // eye space
  float u = 0, v = 0;  // texture coordinates
};

struct Primitive {
  enum class Kind { kTriangle, kLine } kind = Kind::kTriangle;
  EyeVertex a, b, c;           // triangle vertices (a, b for lines)
  const core::ImageRGBA* texture = nullptr;
  Color color;                 // for lines
  float depth = 0.0f;          // sort key: centroid eye z
};

// Flatten the node tree into eye-space primitives.
void collect(const Node& node, const Mat4& world, const Mat4& view,
             std::vector<Primitive>& out) {
  if (const auto* group = dynamic_cast<const GroupNode*>(&node)) {
    const Mat4 next = world * group->transform();
    for (const auto& child : group->children()) {
      collect(*child, next, view, out);
    }
    return;
  }

  const Mat4 to_eye = view * world;
  auto eye = [&](const Vec3f& p) { return to_eye.transform_point(p); };

  if (const auto* quad = dynamic_cast<const TexQuadNode*>(&node)) {
    if (quad->texture().empty()) return;
    const auto& c = quad->corners();
    // Corner order: (0,0) (1,0) (1,1) (0,1) in texture space.
    EyeVertex v0{eye(c[0]), 0, 0}, v1{eye(c[1]), 1, 0}, v2{eye(c[2]), 1, 1},
        v3{eye(c[3]), 0, 1};
    Primitive t1{Primitive::Kind::kTriangle, v0, v1, v2, &quad->texture(), {},
                 (v0.pos.z + v1.pos.z + v2.pos.z) / 3.0f};
    Primitive t2{Primitive::Kind::kTriangle, v0, v2, v3, &quad->texture(), {},
                 (v0.pos.z + v2.pos.z + v3.pos.z) / 3.0f};
    // One depth per *quad* so the two halves never straddle another slab.
    const float d = (t1.depth + t2.depth) * 0.5f;
    t1.depth = t2.depth = d;
    out.push_back(t1);
    out.push_back(t2);
    return;
  }

  if (const auto* mesh = dynamic_cast<const QuadMeshNode*>(&node)) {
    if (mesh->texture().empty()) return;
    float depth_sum = 0.0f;
    std::vector<Primitive> local;
    for (int j = 0; j < mesh->nv(); ++j) {
      for (int i = 0; i < mesh->nu(); ++i) {
        auto vert = [&](int ii, int jj) {
          EyeVertex v;
          v.pos = eye(mesh->vertex(ii, jj));
          v.u = static_cast<float>(ii) / mesh->nu();
          v.v = static_cast<float>(jj) / mesh->nv();
          return v;
        };
        const EyeVertex v00 = vert(i, j), v10 = vert(i + 1, j),
                        v11 = vert(i + 1, j + 1), v01 = vert(i, j + 1);
        Primitive t1{Primitive::Kind::kTriangle, v00, v10, v11,
                     &mesh->texture(), {}, 0.0f};
        Primitive t2{Primitive::Kind::kTriangle, v00, v11, v01,
                     &mesh->texture(), {}, 0.0f};
        t1.depth = (v00.pos.z + v10.pos.z + v11.pos.z) / 3.0f;
        t2.depth = (v00.pos.z + v11.pos.z + v01.pos.z) / 3.0f;
        depth_sum += t1.depth + t2.depth;
        local.push_back(t1);
        local.push_back(t2);
      }
    }
    // Mesh cells keep their own depths (that is the point of the depth
    // extension) but are biased by a tiny epsilon toward the mesh mean so
    // coplanar meshes layer stably.
    (void)depth_sum;
    out.insert(out.end(), local.begin(), local.end());
    return;
  }

  if (const auto* lines = dynamic_cast<const LinesNode*>(&node)) {
    for (const auto& seg : lines->segments()) {
      Primitive p;
      p.kind = Primitive::Kind::kLine;
      p.a.pos = eye(seg.a);
      p.b.pos = eye(seg.b);
      p.color = lines->color();
      p.depth = (p.a.pos.z + p.b.pos.z) * 0.5f;
      out.push_back(p);
    }
    return;
  }
}

float edge(float ax, float ay, float bx, float by, float px, float py) {
  return (bx - ax) * (py - ay) - (by - ay) * (px - ax);
}

}  // namespace

Mat4 Camera::make_view(const Vec3f& u, const Vec3f& v, const Vec3f& w,
                       const Vec3f& centre) {
  // Rows are the eye axes; translation brings `centre` to the origin.
  Mat4 m;
  const Vec3f t{-dot(u, centre), -dot(v, centre), -dot(w, centre)};
  m.at(0, 0) = u.x; m.at(0, 1) = u.y; m.at(0, 2) = u.z; m.at(0, 3) = t.x;
  m.at(1, 0) = v.x; m.at(1, 1) = v.y; m.at(1, 2) = v.z; m.at(1, 3) = t.y;
  m.at(2, 0) = w.x; m.at(2, 1) = w.y; m.at(2, 2) = w.z; m.at(2, 3) = t.z;
  return m;
}

core::ImageRGBA Rasterizer::render(const SceneGraph& graph) const {
  core::ImageRGBA out;
  graph.visit([&](const GroupNode& root) { out = render_node(root); });
  return out;
}

core::ImageRGBA Rasterizer::render_node(const GroupNode& root) const {
  std::vector<Primitive> prims;
  collect(root, Mat4::identity(), camera_.view, prims);

  // Painter's algorithm: larger eye z = farther = drawn first.
  std::stable_sort(prims.begin(), prims.end(),
                   [](const Primitive& a, const Primitive& b) {
                     return a.depth > b.depth;
                   });

  core::ImageRGBA fb(camera_.width, camera_.height);
  const float s = camera_.pixels_per_unit;
  const float cx = camera_.width * 0.5f;
  const float cy = camera_.height * 0.5f;
  auto px = [&](const Vec3f& p) { return cx + p.x * s; };
  auto py = [&](const Vec3f& p) { return cy + p.y * s; };

  for (const Primitive& prim : prims) {
    if (prim.kind == Primitive::Kind::kLine) {
      // DDA line draw.
      const float x0 = px(prim.a.pos), y0 = py(prim.a.pos);
      const float x1 = px(prim.b.pos), y1 = py(prim.b.pos);
      const float len = std::max(std::abs(x1 - x0), std::abs(y1 - y0));
      const int steps = std::max(1, static_cast<int>(std::ceil(len)));
      const core::Pixel pc{prim.color.r * prim.color.a,
                           prim.color.g * prim.color.a,
                           prim.color.b * prim.color.a, prim.color.a};
      for (int i = 0; i <= steps; ++i) {
        const float t = static_cast<float>(i) / steps;
        const int x = static_cast<int>(std::round(x0 + (x1 - x0) * t));
        const int y = static_cast<int>(std::round(y0 + (y1 - y0) * t));
        if (x < 0 || y < 0 || x >= fb.width() || y >= fb.height()) continue;
        fb.at(x, y) = core::over(pc, fb.at(x, y));
      }
      continue;
    }

    // Textured triangle with barycentric interpolation.  Vertices are
    // reordered to counter-clockwise (positive area) and shared edges are
    // resolved with the standard top-left fill rule so adjacent triangles
    // (the two halves of a quad) never double-cover a pixel -- semi-
    // transparent slab textures would visibly double-blend otherwise.
    EyeVertex va = prim.a, vb = prim.b, vc = prim.c;
    {
      const float raw_area = edge(px(va.pos), py(va.pos), px(vb.pos),
                                  py(vb.pos), px(vc.pos), py(vc.pos));
      if (raw_area < 0) std::swap(vb, vc);
    }
    const float ax = px(va.pos), ay = py(va.pos);
    const float bx = px(vb.pos), by = py(vb.pos);
    const float cxp = px(vc.pos), cyp = py(vc.pos);
    const float area = edge(ax, ay, bx, by, cxp, cyp);
    if (std::abs(area) < 1e-8f) continue;

    // Top-left rule in a y-down pixel grid: an edge owns its boundary
    // pixels if it is a "top" edge (horizontal, interior below) or a
    // "left" edge (interior to its right).
    auto owns_boundary = [](float x0, float y0, float x1, float y1) {
      const float dx = x1 - x0, dy = y1 - y0;
      return (dy == 0.0f && dx > 0.0f) || dy > 0.0f;
    };
    const bool own0 = owns_boundary(bx, by, cxp, cyp);
    const bool own1 = owns_boundary(cxp, cyp, ax, ay);
    const bool own2 = owns_boundary(ax, ay, bx, by);

    const int min_x = std::max(0, static_cast<int>(std::floor(std::min({ax, bx, cxp}))));
    const int max_x = std::min(fb.width() - 1,
                               static_cast<int>(std::ceil(std::max({ax, bx, cxp}))));
    const int min_y = std::max(0, static_cast<int>(std::floor(std::min({ay, by, cyp}))));
    const int max_y = std::min(fb.height() - 1,
                               static_cast<int>(std::ceil(std::max({ay, by, cyp}))));

    for (int y = min_y; y <= max_y; ++y) {
      for (int x = min_x; x <= max_x; ++x) {
        const float fx = static_cast<float>(x) + 0.5f;
        const float fy = static_cast<float>(y) + 0.5f;
        const float e0 = edge(bx, by, cxp, cyp, fx, fy);
        const float e1 = edge(cxp, cyp, ax, ay, fx, fy);
        const float e2 = edge(ax, ay, bx, by, fx, fy);
        const bool inside = (e0 > 0 || (e0 == 0 && own0)) &&
                            (e1 > 0 || (e1 == 0 && own1)) &&
                            (e2 > 0 || (e2 == 0 && own2));
        if (!inside) continue;
        const float w0 = e0 / area;
        const float w1 = e1 / area;
        const float w2 = e2 / area;
        const float u = w0 * va.u + w1 * vb.u + w2 * vc.u;
        const float v = w0 * va.v + w1 * vb.v + w2 * vc.v;
        const core::Pixel texel = prim.texture->sample_bilinear(u, v);
        if (texel.a <= 0.0f && texel.r <= 0.0f && texel.g <= 0.0f &&
            texel.b <= 0.0f) {
          continue;
        }
        fb.at(x, y) = core::over(texel, fb.at(x, y));
      }
    }
  }
  return fb;
}

}  // namespace visapult::scenegraph
