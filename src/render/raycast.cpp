#include "render/raycast.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

// Four rays per 16-byte GCC vector (SSE2 on x86-64, wider targets compile
// the same code).  Lanes run scalar IEEE operations in the scalar order.
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));
constexpr int kLanes = 4;
constexpr int kGroups = 2;                // lane groups marched side by side
constexpr int kBlock = kLanes * kGroups;  // image columns per block
constexpr int kPlanes = 4;                // per sample: see fill_planes

static_assert(sizeof(StepClassifier::Entry) == sizeof(F4));

F4 splat(float f) { return F4{f, f, f, f}; }

// x where m is set, +0 elsewhere.
F4 masked(F4 x, I4 m) {
  return reinterpret_cast<F4>(reinterpret_cast<I4>(x) & m);
}

bool any(I4 m) {
  std::uint64_t h[2];
  std::memcpy(h, &m, sizeof h);
  return (h[0] | h[1]) != 0;
}

// Volume::sample's (x, y, z) taps for the ray through column tap u and row
// tap v at sample tap w; image_axes_for's cyclic convention decides which
// is which.
struct Xyz {
  const Tap& x;
  const Tap& y;
  const Tap& z;
};

template <vol::Axis kView>
Xyz xyz(const Tap& u, const Tap& v, const Tap& w) {
  if constexpr (kView == vol::Axis::kX) {
    return {w, u, v};  // u = Y, v = Z
  } else if constexpr (kView == vol::Axis::kY) {
    return {v, w, u};  // u = Z, v = X
  } else {
    return {u, v, w};  // u = X, v = Y
  }
}

// Whether rows at taps a and b have the same x-lerps.  These depend on the
// x taps and the y and z cell indices, not on the y and z fractions, so
// the rows of one cell row share them; in the Y view the row is x, so only
// the row itself does.
template <vol::Axis kView>
bool same_planes(const Tap& a, const Tap& b) {
  return a.lo == b.lo && a.hi == b.hi &&
         (kView != vol::Axis::kY || a.f == b.f);
}

// Stage 1: Volume::sample's four x-lerps c00, c10, c01, c11 (cYZ: y and z
// neighbour) for every sample of the block's kBlock columns in row tap v,
// stored as the planes c00, c10 - c00, c01, c11 - c01 that stage 2's
// y-lerps take, laid out [sample][plane][group] so stage 2 reads them in
// order.  In the X and Y views the column is y or z, so neighbouring
// columns in one cell have the same x-lerps and copy them.
template <vol::Axis kView>
void fill_planes(const float* d, const Tap* ut, const Tap& v,
                 const std::vector<Tap>& wt, F4* planes) {
  for (std::size_t s = 0; s < wt.size(); ++s) {
    F4* out = planes + s * kPlanes * kGroups;
    for (int c = 0; c < kBlock; ++c) {
      const int g = c / kLanes, l = c % kLanes;
      if (kView != vol::Axis::kZ && c > 0 && ut[c].lo == ut[c - 1].lo &&
          ut[c].hi == ut[c - 1].hi) {
        const int pg = (c - 1) / kLanes, pl = (c - 1) % kLanes;
        for (int p = 0; p < kPlanes; ++p) {
          out[p * kGroups + g][l] = out[p * kGroups + pg][pl];
        }
        continue;
      }
      const Xyz t = xyz<kView>(ut[c], v, wt[s]);
      const float c00 = lerp(d[t.x.lo + t.y.lo + t.z.lo],
                             d[t.x.hi + t.y.lo + t.z.lo], t.x.f);
      const float c10 = lerp(d[t.x.lo + t.y.hi + t.z.lo],
                             d[t.x.hi + t.y.hi + t.z.lo], t.x.f);
      const float c01 = lerp(d[t.x.lo + t.y.lo + t.z.hi],
                             d[t.x.hi + t.y.lo + t.z.hi], t.x.f);
      const float c11 = lerp(d[t.x.lo + t.y.hi + t.z.hi],
                             d[t.x.hi + t.y.hi + t.z.hi], t.x.f);
      out[0 * kGroups + g][l] = c00;
      out[1 * kGroups + g][l] = c10 - c00;
      out[2 * kGroups + g][l] = c01;
      out[3 * kGroups + g][l] = c11 - c01;
    }
  }
}

// Stage 2: marches the block's first `columns` rays of row tap v through
// the planes: Volume::sample's last three lerps (y, y, then z),
// StepClassifier's lookup and the front-to-back blend, kLanes rays per
// vector.  `wf` is each sample's fraction along the view axis.  A lane
// stops blending when its ray reaches the opacity cutoff, and lanes past
// `columns` (the ragged tail) never start; the block stops when no lane is
// left.
template <vol::Axis kView>
void march_block(const F4* planes, const Tap* ut, const Tap& v,
                 const std::vector<F4>& wf, const StepClassifier& classify,
                 int columns, core::Pixel* out) {
  F4 uf[kGroups] = {};
  I4 live[kGroups] = {};
  for (int g = 0; g < kGroups; ++g) {
    for (int l = 0; l < kLanes; ++l) {
      uf[g][l] = ut[g * kLanes + l].f;
      live[g][l] = g * kLanes + l < columns ? -1 : 0;
    }
  }
  const F4 vf = splat(v.f);
  const F4 lo = splat(classify.lo()), span = splat(classify.span());
  // An empty or inverted window classifies everything as entry 0.
  const U4 window_ok = U4{} + (classify.span() > 0.0f ? ~0u : 0u);
  const char* table = reinterpret_cast<const char*>(&classify.entry(0));
  F4 r[kGroups] = {}, gr[kGroups] = {}, b[kGroups] = {}, a[kGroups] = {};

  for (std::size_t s = 0; s < wf.size(); ++s) {
    const F4* p = planes + s * kPlanes * kGroups;
    for (int g = 0; g < kGroups; ++g) {
      // The y and z fractions: the column's (per lane), the row's or the
      // sample's, by the view.
      F4 fy, fz;
      if constexpr (kView == vol::Axis::kX) {
        fy = uf[g];
        fz = vf;
      } else if constexpr (kView == vol::Axis::kY) {
        fy = wf[s];
        fz = uf[g];
      } else {
        fy = vf;
        fz = wf[s];
      }
      const F4 y0 = p[0 * kGroups + g] + p[1 * kGroups + g] * fy;
      const F4 y1 = p[2 * kGroups + g] + p[3 * kGroups + g] * fy;
      const F4 raw = y0 + (y1 - y0) * fz;

      // StepClassifier::operator(), lane by lane: byte offsets of the
      // entries, one 16-byte load each, and a 4x4 transpose to the r, g,
      // b and alpha of four rays.
      const I4 index = __builtin_convertvector(
          TransferFunction::index_position((raw - lo) / span), I4);
      const U4 offset = (reinterpret_cast<U4>(index) & window_ok) *
                        static_cast<std::uint32_t>(sizeof(F4));
      F4 e[kLanes];
      for (int l = 0; l < kLanes; ++l) {
        std::memcpy(&e[l], table + offset[l], sizeof(F4));
      }
      const F4 rg01 = __builtin_shuffle(e[0], e[1], I4{0, 4, 1, 5});
      const F4 rg23 = __builtin_shuffle(e[2], e[3], I4{0, 4, 1, 5});
      const F4 ba01 = __builtin_shuffle(e[0], e[1], I4{2, 6, 3, 7});
      const F4 ba23 = __builtin_shuffle(e[2], e[3], I4{2, 6, 3, 7});
      const F4 er = __builtin_shuffle(rg01, rg23, I4{0, 1, 4, 5});
      const F4 eg = __builtin_shuffle(rg01, rg23, I4{2, 3, 6, 7});
      const F4 eb = __builtin_shuffle(ba01, ba23, I4{0, 1, 4, 5});
      const F4 ea = __builtin_shuffle(ba01, ba23, I4{2, 3, 6, 7});

      // accumulate() where the ray is live and the sample not transparent.
      // Elsewhere each sum adds +0, which leaves it unchanged: the sums
      // start at +0 and never become -0.
      const I4 blend = live[g] & (ea > 0.0f);
      const F4 w = masked((1.0f - a[g]) * ea, blend);
      r[g] += masked(w * er, blend);
      gr[g] += masked(w * eg, blend);
      b[g] += masked(w * eb, blend);
      a[g] += w;
      live[g] &= ~(a[g] >= kOpaqueCutoff);
    }
    I4 any_live = live[0];
    for (int g = 1; g < kGroups; ++g) any_live |= live[g];
    if (!any(any_live)) break;
  }
  for (int i = 0; i < columns; ++i) {
    const int g = i / kLanes, l = i % kLanes;
    out[i] = {r[g][l], gr[g][l], b[g][l], a[g][l]};
  }
}

// Marches image rows [row_begin, row_end): for each run of rows that share
// their x-lerps, block by block, stage 1 once and stage 2 per row.
template <vol::Axis kView>
void march_rows(const float* d, const StepClassifier& classify,
                const std::vector<Tap>& ut, const std::vector<Tap>& vt,
                const std::vector<Tap>& wt, int row_begin,
                core::ImageRGBA& img) {
  const int width = img.width();
  std::vector<F4> wf;
  for (const Tap& w : wt) wf.push_back(splat(w.f));
  std::vector<F4> planes(wt.size() * kPlanes * kGroups);
  for (std::size_t r0 = 0; r0 < vt.size();) {
    std::size_t r1 = r0 + 1;
    while (r1 < vt.size() && same_planes<kView>(vt[r0], vt[r1])) ++r1;
    for (int c0 = 0; c0 < width; c0 += kBlock) {
      const Tap* block = ut.data() + c0;
      fill_planes<kView>(d, block, vt[r0], wt, planes.data());
      for (std::size_t r = r0; r < r1; ++r) {
        march_block<kView>(planes.data(), block, vt[r], wf, classify,
                           std::min(kBlock, width - c0),
                           &img.at(c0, row_begin + static_cast<int>(r)));
      }
    }
    r0 = r1;
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
  // Padded to whole blocks; the padding columns read cell 0 and are never
  // blended or stored.
  const int blocks = (img.width() + kBlock - 1) / kBlock;
  std::vector<Tap> ut(static_cast<std::size_t>(blocks * kBlock));
  for (int i = 0; i < img.width(); ++i) {
    ut[static_cast<std::size_t>(i)] = image_tap(i, ua);
  }
  std::vector<Tap> vt;
  for (int j = row_begin; j < row_end; ++j) vt.push_back(image_tap(j, va));

  const StepClassifier classify(tf, options);
  const float* d = volume.data().data();
  switch (view_axis) {
    case vol::Axis::kX:
      march_rows<vol::Axis::kX>(d, classify, ut, vt, wt, row_begin, img);
      break;
    case vol::Axis::kY:
      march_rows<vol::Axis::kY>(d, classify, ut, vt, wt, row_begin, img);
      break;
    case vol::Axis::kZ:
      march_rows<vol::Axis::kZ>(d, classify, ut, vt, wt, row_begin, img);
      break;
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
