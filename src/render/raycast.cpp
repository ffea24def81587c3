#include "render/raycast.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace visapult::render {

namespace {

struct Vec3 {
  float x = 0, y = 0, z = 0;
};

Vec3 axis_dir(vol::Axis a) {
  switch (a) {
    case vol::Axis::kX: return {1, 0, 0};
    case vol::Axis::kY: return {0, 1, 0};
    case vol::Axis::kZ: return {0, 0, 1};
  }
  return {};
}

Vec3 add(Vec3 a, Vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
Vec3 scale(Vec3 a, float s) { return {a.x * s, a.y * s, a.z * s}; }

// Front-to-back accumulation of one classified sample.
void accumulate(core::Pixel& acc, const StepClassifier::Entry& e) {
  const float w = (1.0f - acc.a) * e.alpha;
  acc.r += w * e.r;
  acc.g += w * e.g;
  acc.b += w * e.b;
  acc.a += w;
}

constexpr float kOpaqueCutoff = 0.995f;

// One axis of a trilinear footprint: the two neighbour cells, clamped to
// the grid and pre-multiplied by the axis stride into element offsets, and
// the fraction between them.  Volume::sample derives the same three values
// from floor() and at_clamped() on every call.
struct Tap {
  std::size_t lo = 0, hi = 0;
  float f = 0.0f;
};

Tap make_tap(float coord, int n, std::size_t stride) {
  const int c0 = static_cast<int>(std::floor(coord));
  Tap t;
  t.f = coord - c0;
  t.lo = static_cast<std::size_t>(std::clamp(c0, 0, n - 1)) * stride;
  t.hi = static_cast<std::size_t>(std::clamp(c0 + 1, 0, n - 1)) * stride;
  return t;
}

float lerp(float a, float b, float t) { return a + (b - a) * t; }

// Volume::sample from precomputed taps: the same eight cells and the same
// seven lerps in the same order (x, then y, then z).
float trilinear(const float* d, const Tap& x, const Tap& y, const Tap& z) {
  const float c00 = lerp(d[x.lo + y.lo + z.lo], d[x.hi + y.lo + z.lo], x.f);
  const float c10 = lerp(d[x.lo + y.hi + z.lo], d[x.hi + y.hi + z.lo], x.f);
  const float c01 = lerp(d[x.lo + y.lo + z.hi], d[x.hi + y.lo + z.hi], x.f);
  const float c11 = lerp(d[x.lo + y.hi + z.hi], d[x.hi + y.hi + z.hi], x.f);
  return lerp(lerp(c00, c10, y.f), lerp(c01, c11, y.f), z.f);
}

// Marches one image row.  `ut` holds a tap per column, `v` is the row's
// tap and `wt` a tap per sample along the view axis; image_axes_for's
// cyclic convention decides which of them is x, y and z.
template <vol::Axis kView>
void march_row(const float* d, const StepClassifier& classify,
               const std::vector<Tap>& ut, const Tap& v,
               const std::vector<Tap>& wt, core::Pixel* row) {
  for (std::size_t i = 0; i < ut.size(); ++i) {
    const Tap& u = ut[i];
    core::Pixel acc;
    for (const Tap& w : wt) {
      float raw;
      if constexpr (kView == vol::Axis::kX) {
        raw = trilinear(d, w, u, v);  // u = Y, v = Z
      } else if constexpr (kView == vol::Axis::kY) {
        raw = trilinear(d, v, w, u);  // u = Z, v = X
      } else {
        raw = trilinear(d, u, v, w);  // u = X, v = Y
      }
      const StepClassifier::Entry& e = classify(raw);
      if (e.alpha > 0.0f) accumulate(acc, e);
      if (acc.a >= kOpaqueCutoff) break;
    }
    row[i] = acc;
  }
}

}  // namespace

void image_axes_for(vol::Axis view_axis, vol::Axis& img_u, vol::Axis& img_v) {
  img_u = static_cast<vol::Axis>((static_cast<int>(view_axis) + 1) % 3);
  img_v = static_cast<vol::Axis>((static_cast<int>(view_axis) + 2) % 3);
}

core::Status render_brick_rows(const vol::Volume& volume,
                               const vol::Brick& slab, vol::Axis view_axis,
                               const TransferFunction& tf,
                               const RenderOptions& options, int row_begin,
                               int row_end, core::ImageRGBA& img) {
  const vol::Dims vd = volume.dims();
  if (slab.x0 < 0 || slab.y0 < 0 || slab.z0 < 0 ||
      slab.x0 + slab.dims.nx > vd.nx || slab.y0 + slab.dims.ny > vd.ny ||
      slab.z0 + slab.dims.nz > vd.nz) {
    return core::out_of_range("slab exceeds volume bounds");
  }
  if (options.step <= 0.0f || options.resolution_scale <= 0.0f) {
    return core::invalid_argument("step and resolution_scale must be > 0");
  }
  if (row_begin < 0 || row_end > img.height() || row_begin > row_end) {
    return core::out_of_range("bad row range");
  }

  vol::Axis ua, va;
  image_axes_for(view_axis, ua, va);
  auto stride = [&](vol::Axis a) -> std::size_t {
    switch (a) {
      case vol::Axis::kX: return 1;
      case vol::Axis::kY: return static_cast<std::size_t>(vd.nx);
      case vol::Axis::kZ: return static_cast<std::size_t>(vd.nx) * vd.ny;
    }
    return 0;
  };

  // Slab extent along the view axis.
  int a0 = 0, alen = 0;
  switch (view_axis) {
    case vol::Axis::kX: a0 = slab.x0; alen = slab.dims.nx; break;
    case vol::Axis::kY: a0 = slab.y0; alen = slab.dims.ny; break;
    case vol::Axis::kZ: a0 = slab.z0; alen = slab.dims.nz; break;
  }

  // Every ray takes the same sample positions along the view axis, built
  // by the same float accumulation of `step`.
  std::vector<Tap> wt;
  for (float t = 0.5f * options.step; t < static_cast<float>(alen);
       t += options.step) {
    wt.push_back(make_tap((static_cast<float>(a0) + t) - 0.5f,
                          vd.extent(view_axis), stride(view_axis)));
  }
  // Pixel centres in cell units: column i is at (i + 0.5) / scale.
  auto image_tap = [&](int pixel, vol::Axis a) {
    const float c =
        (static_cast<float>(pixel) + 0.5f) / options.resolution_scale;
    return make_tap(c - 0.5f, vd.extent(a), stride(a));
  };
  std::vector<Tap> ut(static_cast<std::size_t>(img.width()));
  for (int i = 0; i < img.width(); ++i) {
    ut[static_cast<std::size_t>(i)] = image_tap(i, ua);
  }

  const StepClassifier classify(tf, options);
  const float* d = volume.data().data();
  for (int j = row_begin; j < row_end; ++j) {
    const Tap v = image_tap(j, va);
    core::Pixel* row = &img.at(0, j);
    switch (view_axis) {
      case vol::Axis::kX:
        march_row<vol::Axis::kX>(d, classify, ut, v, wt, row);
        break;
      case vol::Axis::kY:
        march_row<vol::Axis::kY>(d, classify, ut, v, wt, row);
        break;
      case vol::Axis::kZ:
        march_row<vol::Axis::kZ>(d, classify, ut, v, wt, row);
        break;
    }
  }
  return core::Status::ok();
}

core::Result<core::ImageRGBA> render_brick_along_axis(
    const vol::Volume& volume, const vol::Brick& slab, vol::Axis view_axis,
    const TransferFunction& tf, const RenderOptions& options) {
  if (options.resolution_scale <= 0.0f) {
    return core::invalid_argument("resolution_scale must be > 0");
  }
  vol::Axis ua, va;
  image_axes_for(view_axis, ua, va);
  const vol::Dims vd = volume.dims();
  const int width = std::max(
      1, static_cast<int>(vd.extent(ua) * options.resolution_scale));
  const int height = std::max(
      1, static_cast<int>(vd.extent(va) * options.resolution_scale));
  core::ImageRGBA img(width, height);
  if (auto st = render_brick_rows(volume, slab, view_axis, tf, options, 0,
                                  height, img);
      !st.is_ok()) {
    return st;
  }
  return img;
}

core::Result<core::ImageRGBA> render_volume_rotated(
    const vol::Volume& volume, vol::Axis base_axis, float angle_rad,
    const TransferFunction& tf, const RenderOptions& options) {
  if (options.step <= 0.0f || options.resolution_scale <= 0.0f) {
    return core::invalid_argument("step and resolution_scale must be > 0");
  }
  const vol::Dims vd = volume.dims();
  vol::Axis ua, va;
  image_axes_for(base_axis, ua, va);
  const int width = std::max(
      1, static_cast<int>(vd.extent(ua) * options.resolution_scale));
  const int height = std::max(
      1, static_cast<int>(vd.extent(va) * options.resolution_scale));
  core::ImageRGBA img(width, height);

  // Rotate the view direction and image-horizontal axis about the image-
  // vertical axis by angle_rad.
  const Vec3 w0 = axis_dir(base_axis);
  const Vec3 u0 = axis_dir(ua);
  const Vec3 v0 = axis_dir(va);
  const float ca = std::cos(angle_rad), sa = std::sin(angle_rad);
  // Rodrigues rotation about v0 for vectors orthogonal to v0.
  auto rot = [&](Vec3 p) {
    // cross(v0, p)
    const Vec3 cr{v0.y * p.z - v0.z * p.y, v0.z * p.x - v0.x * p.z,
                  v0.x * p.y - v0.y * p.x};
    return Vec3{p.x * ca + cr.x * sa, p.y * ca + cr.y * sa, p.z * ca + cr.z * sa};
  };
  const Vec3 w = rot(w0);
  const Vec3 u = rot(u0);

  const Vec3 centre{vd.nx * 0.5f, vd.ny * 0.5f, vd.nz * 0.5f};
  const float eu = static_cast<float>(vd.extent(ua));
  const float ev = static_cast<float>(vd.extent(va));
  const float diag = std::sqrt(static_cast<float>(vd.nx) * vd.nx +
                               static_cast<float>(vd.ny) * vd.ny +
                               static_cast<float>(vd.nz) * vd.nz);

  auto inside = [&](const Vec3& p) {
    return p.x >= 0 && p.x <= static_cast<float>(vd.nx) && p.y >= 0 &&
           p.y <= static_cast<float>(vd.ny) && p.z >= 0 &&
           p.z <= static_cast<float>(vd.nz);
  };

  const StepClassifier classify(tf, options);
  for (int j = 0; j < height; ++j) {
    const float cv = (static_cast<float>(j) + 0.5f) / options.resolution_scale - ev * 0.5f;
    for (int i = 0; i < width; ++i) {
      const float cu = (static_cast<float>(i) + 0.5f) / options.resolution_scale - eu * 0.5f;
      const Vec3 p0 = add(centre, add(scale(u, cu), scale(v0, cv)));
      core::Pixel acc;
      for (float t = -diag * 0.5f; t <= diag * 0.5f; t += options.step) {
        const Vec3 p = add(p0, scale(w, t));
        if (!inside(p)) continue;
        const StepClassifier::Entry& e =
            classify(volume.sample(p.x - 0.5f, p.y - 0.5f, p.z - 0.5f));
        if (e.alpha > 0.0f) accumulate(acc, e);
        if (acc.a >= kOpaqueCutoff) break;
      }
      img.at(i, j) = acc;
    }
  }
  return img;
}

}  // namespace visapult::render
