// Software volume rendering by orthographic ray marching.
//
// Two renderers:
//
//  * render_brick_along_axis -- the back end's workhorse.  Each PE volume
//    renders its slab along a principal axis into an RGBA texture whose
//    pixel grid is the full volume's transverse extent, so the per-slab
//    textures from all PEs align exactly when the viewer composites them
//    (the IBRAVR source images of section 3.3).
//
//  * render_volume_rotated -- a general orthographic ray caster with a
//    rotation about the vertical axis.  This is the "costly volume
//    rendering on each frame" IBRAVR avoids; the reproduction uses it as
//    ground truth to *measure* the IBRAVR off-axis artifacts of Fig. 6.
//
// Both composite front-to-back with opacity corrected for step size, and
// produce premultiplied-alpha images (see core/image.h).  Both classify
// through a StepClassifier (render/transfer.h): one table per call with
// the data window and the step correction folded in.
//
// The axis-aligned march is one kernel for all three view axes, in two
// stages.  Its rays share one direction and one step, so the trilinear
// taps (clamped neighbour offsets and fraction) are computed once per
// call along the view axis, per image column and per image row.
//
//  * Corner planes.  Volume::sample lerps along x first, and its four
//    x-lerps depend on the x taps and on the y and z cell indices, not on
//    the y and z fractions.  Stage 1 computes them once for a run of rows
//    that share them -- the rows of one cell row in the Z and X views, one
//    row in the Y view, where the row is x -- into [sample][column] planes
//    (c00, c10 - c00, c01, c11 - c01).  Columns of one cell share them too
//    where the column is y or z (X and Y views) and copy them.
//  * Lane groups.  Stage 2 marches the columns in blocks of two groups of
//    four rays, one ray per lane of a 16-byte GCC vector (SSE2 on x86-64;
//    no intrinsics).  Per sample it does the last three lerps, the
//    StepClassifier index (TransferFunction::index_position, lane-wise),
//    one 16-byte load of each lane's table entry and a 4x4 transpose, and
//    the front-to-back blend.
//  * Masks.  The blend's "alpha > 0" test, the 0.995 opacity cutoff and
//    the ragged last block (lanes past the image width) are per-lane
//    masks; a masked lane adds +0 to its sums, which leaves them as they
//    are.  A block stops when none of its lanes is live.
//
// Every lane runs the scalar IEEE operations in Volume::sample's order
// (the build sets -ffp-contract=off so no target fuses them into FMAs),
// so every image is bit-identical to a march that calls Volume::sample and
// TransferFunction::classify per sample (tests/render_golden_test.cpp pins
// this, including rays that stop at different samples, ragged widths and
// row bands that start inside a cell row).
#pragma once

#include <cmath>

#include "core/image.h"
#include "render/transfer.h"
#include "vol/decompose.h"
#include "vol/volume.h"

namespace visapult::render {

struct RenderOptions {
  float step = 1.0f;        // ray-march step, in cells
  float value_lo = 0.0f;    // data window mapped to [0,1] before the TF
  float value_hi = 1.0f;
  // Pixels per cell in the output image (1 = one pixel per cell).
  float resolution_scale = 1.0f;
};

// The two image axes for viewing along `axis`, chosen with a consistent
// handedness so textures from different slabs/axes line up.
void image_axes_for(vol::Axis view_axis, vol::Axis& img_u, vol::Axis& img_v);

// Render `slab` (a brick of `volume`, which must contain it) along
// `view_axis`, front-to-back with the *near* side being low coordinates.
// The output image spans the full transverse extent of `volume`.
core::Result<core::ImageRGBA> render_brick_along_axis(
    const vol::Volume& volume, const vol::Brick& slab, vol::Axis view_axis,
    const TransferFunction& tf, const RenderOptions& options = {});

// Ground-truth renderer: orthographic view of the whole volume, rotated by
// `angle_rad` about the image-vertical axis relative to viewing along
// `base_axis`.  angle 0 reproduces render_brick_along_axis of the full
// volume (up to sampling).
core::Result<core::ImageRGBA> render_volume_rotated(
    const vol::Volume& volume, vol::Axis base_axis, float angle_rad,
    const TransferFunction& tf, const RenderOptions& options = {});

// Advanced entry point: render only image rows [row_begin, row_end) into
// `out`, which must already have the full image size.  This is what the
// image-order parallel driver uses to give each processor a screen-space
// band.  render_brick_along_axis is the whole-image convenience wrapper.
core::Status render_brick_rows(const vol::Volume& volume,
                               const vol::Brick& slab, vol::Axis view_axis,
                               const TransferFunction& tf,
                               const RenderOptions& options, int row_begin,
                               int row_end, core::ImageRGBA& out);

// Per-sample opacity from extinction for a given step length.
inline float opacity_for_step(float extinction, float step) {
  // Beer-Lambert: alpha = 1 - exp(-extinction * step).
  return 1.0f - std::exp(-extinction * step);
}

}  // namespace visapult::render
