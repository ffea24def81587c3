#include "ibravr/ibravr.h"

#include <algorithm>
#include <cmath>

namespace visapult::ibravr {

using scenegraph::Vec3f;

namespace {

Vec3f axis_dir(vol::Axis a) {
  switch (a) {
    case vol::Axis::kX: return {1, 0, 0};
    case vol::Axis::kY: return {0, 1, 0};
    case vol::Axis::kZ: return {0, 0, 1};
  }
  return {};
}

void slab_span(const SlabInfo& info, float& w0, float& wlen) {
  switch (info.axis) {
    case vol::Axis::kX:
      w0 = static_cast<float>(info.brick.x0);
      wlen = static_cast<float>(info.brick.dims.nx);
      return;
    case vol::Axis::kY:
      w0 = static_cast<float>(info.brick.y0);
      wlen = static_cast<float>(info.brick.dims.ny);
      return;
    case vol::Axis::kZ:
      w0 = static_cast<float>(info.brick.z0);
      wlen = static_cast<float>(info.brick.dims.nz);
      return;
  }
}

}  // namespace

std::array<Vec3f, 4> slab_quad_corners(const SlabInfo& info) {
  vol::Axis ua, va;
  render::image_axes_for(info.axis, ua, va);
  const float eu = static_cast<float>(info.volume_dims.extent(ua));
  const float ev = static_cast<float>(info.volume_dims.extent(va));
  float w0 = 0, wlen = 0;
  slab_span(info, w0, wlen);
  const float wc = w0 + 0.5f * wlen;

  const Vec3f du = axis_dir(ua);
  const Vec3f dv = axis_dir(va);
  const Vec3f dw = axis_dir(info.axis);
  const Vec3f base = dw * wc;
  return {base, base + du * eu, base + du * eu + dv * ev, base + dv * ev};
}

scenegraph::NodePtr make_slab_quad(const SlabInfo& info,
                                   core::ImageRGBA texture) {
  auto node = std::make_shared<scenegraph::TexQuadNode>(
      "slab-" + std::to_string(info.slab_index), slab_quad_corners(info));
  node->set_texture(std::move(texture));
  return node;
}

core::Result<scenegraph::NodePtr> make_slab_mesh(const SlabInfo& info,
                                                 core::ImageRGBA texture,
                                                 std::vector<float> offsets,
                                                 int nu, int nv) {
  if (nu <= 0 || nv <= 0) return core::invalid_argument("mesh dims must be > 0");
  if (offsets.size() !=
      static_cast<std::size_t>(nu + 1) * static_cast<std::size_t>(nv + 1)) {
    return core::invalid_argument("offset map size mismatch");
  }
  const auto corners = slab_quad_corners(info);
  auto node = std::make_shared<scenegraph::QuadMeshNode>(
      "slabmesh-" + std::to_string(info.slab_index), corners[0],
      corners[1] - corners[0], corners[3] - corners[0], nu, nv);
  for (int j = 0; j <= nv; ++j) {
    for (int i = 0; i <= nu; ++i) {
      node->set_offset(i, j, offsets[static_cast<std::size_t>(j * (nu + 1) + i)]);
    }
  }
  node->set_texture(std::move(texture));
  return scenegraph::NodePtr(node);
}

core::Result<std::vector<float>> compute_offset_map(
    const vol::Volume& volume, const SlabInfo& info,
    const render::TransferFunction& tf, const render::RenderOptions& options,
    int nu, int nv) {
  if (nu <= 0 || nv <= 0) return core::invalid_argument("mesh dims must be > 0");
  vol::Axis ua, va;
  render::image_axes_for(info.axis, ua, va);
  const float eu = static_cast<float>(info.volume_dims.extent(ua));
  const float ev = static_cast<float>(info.volume_dims.extent(va));
  float w0 = 0, wlen = 0;
  slab_span(info, w0, wlen);
  const float wc = w0 + 0.5f * wlen;

  const Vec3f du = axis_dir(ua);
  const Vec3f dv = axis_dir(va);
  const Vec3f dw = axis_dir(info.axis);

  std::vector<float> offsets(static_cast<std::size_t>(nu + 1) *
                             static_cast<std::size_t>(nv + 1));
  const render::StepClassifier classify(tf, options);
  for (int j = 0; j <= nv; ++j) {
    const float cv = ev * static_cast<float>(j) / nv;
    for (int i = 0; i <= nu; ++i) {
      const float cu = eu * static_cast<float>(i) / nu;
      // Opacity-weighted first moment of the material along the ray,
      // measured from the slab centre plane.
      float acc_a = 0.0f, moment = 0.0f, weight = 0.0f;
      for (float t = 0.5f * options.step; t < wlen; t += options.step) {
        const Vec3f p = du * cu + dv * cv + dw * (w0 + t);
        const float alpha =
            classify(volume.sample(p.x - 0.5f, p.y - 0.5f, p.z - 0.5f)).alpha;
        const float w = (1.0f - acc_a) * alpha;
        moment += w * ((w0 + t) - wc);
        weight += w;
        acc_a += w;
        if (acc_a >= 0.995f) break;
      }
      offsets[static_cast<std::size_t>(j * (nu + 1) + i)] =
          weight > 1e-6f ? moment / weight : 0.0f;
    }
  }
  return offsets;
}

scenegraph::Camera make_rotated_camera(vol::Dims dims, vol::Axis base_axis,
                                       float angle_rad,
                                       float resolution_scale) {
  vol::Axis ua, va;
  render::image_axes_for(base_axis, ua, va);
  const Vec3f u0 = axis_dir(ua);
  const Vec3f v0 = axis_dir(va);
  const Vec3f w0 = axis_dir(base_axis);
  const float ca = std::cos(angle_rad), sa = std::sin(angle_rad);
  auto rot = [&](const Vec3f& p) {
    const Vec3f cr = cross(v0, p);
    return p * ca + cr * sa;
  };
  const Vec3f centre{dims.nx * 0.5f, dims.ny * 0.5f, dims.nz * 0.5f};

  scenegraph::Camera cam;
  cam.view = scenegraph::Camera::make_view(rot(u0), v0, rot(w0), centre);
  cam.width = std::max(1, static_cast<int>(dims.extent(ua) * resolution_scale));
  cam.height = std::max(1, static_cast<int>(dims.extent(va) * resolution_scale));
  cam.pixels_per_unit = resolution_scale;
  return cam;
}

vol::Axis best_view_axis(const Vec3f& view_dir) {
  const float ax = std::abs(view_dir.x);
  const float ay = std::abs(view_dir.y);
  const float az = std::abs(view_dir.z);
  if (ax >= ay && ax >= az) return vol::Axis::kX;
  if (ay >= ax && ay >= az) return vol::Axis::kY;
  return vol::Axis::kZ;
}

Vec3f rotated_view_dir(vol::Axis base_axis, float angle_rad) {
  vol::Axis ua, va;
  render::image_axes_for(base_axis, ua, va);
  const Vec3f v0 = axis_dir(va);
  const Vec3f w0 = axis_dir(base_axis);
  const float ca = std::cos(angle_rad), sa = std::sin(angle_rad);
  return w0 * ca + cross(v0, w0) * sa;
}

core::Result<scenegraph::NodePtr> build_model(
    const vol::Volume& volume, const render::TransferFunction& tf,
    const ModelOptions& options) {
  auto slabs = vol::slab_decompose(volume.dims(), options.slab_count,
                                   options.axis);
  if (!slabs.is_ok()) return slabs.status();

  auto group = std::make_shared<scenegraph::GroupNode>("ibravr-model");
  int index = 0;
  for (const vol::Brick& brick : slabs.value()) {
    SlabInfo info;
    info.volume_dims = volume.dims();
    info.brick = brick;
    info.axis = options.axis;
    info.slab_index = index++;
    info.slab_count = static_cast<int>(slabs.value().size());

    auto image = render::render_brick_along_axis(volume, brick, options.axis,
                                                 tf, options.render);
    if (!image.is_ok()) return image.status();

    if (options.depth_mesh) {
      auto offsets = compute_offset_map(volume, info, tf, options.render,
                                        options.mesh_resolution,
                                        options.mesh_resolution);
      if (!offsets.is_ok()) return offsets.status();
      auto node = make_slab_mesh(info, std::move(image).take(),
                                 std::move(offsets).take(),
                                 options.mesh_resolution,
                                 options.mesh_resolution);
      if (!node.is_ok()) return node.status();
      group->add_child(std::move(node).take());
    } else {
      group->add_child(make_slab_quad(info, std::move(image).take()));
    }
  }
  return scenegraph::NodePtr(group);
}

core::Result<double> offaxis_error(const vol::Volume& volume,
                                   const render::TransferFunction& tf,
                                   const ModelOptions& options,
                                   float angle_rad) {
  auto model = build_model(volume, tf, options);
  if (!model.is_ok()) return model.status();
  auto root = std::make_shared<scenegraph::GroupNode>("root");
  root->add_child(model.value());

  scenegraph::Rasterizer raster(make_rotated_camera(
      volume.dims(), options.axis, angle_rad, options.render.resolution_scale));
  const core::ImageRGBA ibr = raster.render_node(*root);

  auto truth = render::render_volume_rotated(volume, options.axis, angle_rad,
                                             tf, options.render);
  if (!truth.is_ok()) return truth.status();
  return core::ImageRGBA::mean_abs_diff(ibr, truth.value());
}

core::Result<std::vector<ArtifactSample>> artifact_sweep(
    const vol::Volume& volume, const render::TransferFunction& tf,
    const ModelOptions& options, const std::vector<double>& angles_deg) {
  std::vector<ArtifactSample> samples;
  samples.reserve(angles_deg.size());
  double max_err = 0.0;
  for (double deg : angles_deg) {
    auto err = offaxis_error(volume, tf, options,
                             static_cast<float>(deg * M_PI / 180.0));
    if (!err.is_ok()) return err.status();
    ArtifactSample s;
    s.angle_deg = deg;
    s.error = err.value();
    samples.push_back(s);
    max_err = std::max(max_err, s.error);
  }
  for (auto& s : samples) {
    s.relative = max_err > 0 ? s.error / max_err : 0.0;
  }
  return samples;
}

}  // namespace visapult::ibravr
