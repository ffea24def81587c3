#include "render/transfer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "render/raycast.h"

namespace visapult::render {
namespace {

TEST(TransferFunction, InterpolatesBetweenControlPoints) {
  TransferFunction tf({{0.0f, 0, 0, 0, 0.0f}, {1.0f, 1, 0, 0, 1.0f}});
  const auto mid = tf.classify(0.5f);
  EXPECT_NEAR(mid.r, 0.5f, 0.01f);
  EXPECT_NEAR(mid.opacity, 0.5f, 0.01f);
}

TEST(TransferFunction, ExactAtEndpoints) {
  TransferFunction tf({{0.0f, 0.1f, 0.2f, 0.3f, 0.0f}, {1.0f, 1, 1, 1, 2.0f}});
  const auto lo = tf.classify(0.0f);
  EXPECT_NEAR(lo.r, 0.1f, 1e-3f);
  const auto hi = tf.classify(1.0f);
  EXPECT_NEAR(hi.opacity, 2.0f, 1e-3f);
}

TEST(TransferFunction, ClampsOutOfRangeInput) {
  TransferFunction tf({{0.0f, 0, 0, 0, 0.0f}, {1.0f, 1, 1, 1, 1.0f}});
  EXPECT_NEAR(tf.classify(-5.0f).opacity, 0.0f, 1e-3f);
  EXPECT_NEAR(tf.classify(5.0f).opacity, 1.0f, 1e-3f);
}

TEST(TransferFunction, UnsortedControlPointsAreSorted) {
  TransferFunction tf({{1.0f, 1, 1, 1, 1.0f}, {0.0f, 0, 0, 0, 0.0f}});
  EXPECT_LT(tf.classify(0.1f).opacity, tf.classify(0.9f).opacity);
}

TEST(TransferFunction, EmptyPointsYieldDefaultRamp) {
  TransferFunction tf({});
  EXPECT_NEAR(tf.classify(0.0f).opacity, 0.0f, 1e-3f);
  EXPECT_GT(tf.classify(1.0f).opacity, 0.5f);
}

TEST(TransferFunction, PresetsAreMonotoneInOpacity) {
  for (const auto& tf : {TransferFunction::fire(), TransferFunction::density(),
                         TransferFunction::linear_grey()}) {
    float prev = -1.0f;
    for (int i = 0; i <= 100; ++i) {
      const float v = static_cast<float>(i) / 100.0f;
      const float o = tf.classify(v).opacity;
      EXPECT_GE(o, prev - 1e-4f) << "at v=" << v;
      prev = o;
    }
  }
}

TEST(TransferFunction, FireIsWarm) {
  const auto tf = TransferFunction::fire();
  const auto hot = tf.classify(0.7f);
  EXPECT_GT(hot.r, hot.b);  // flames are red/orange, not blue
}

TEST(TransferFunction, NanClassifiesAsFirstEntry) {
  const auto tf = TransferFunction::fire();
  EXPECT_EQ(TransferFunction::index_of(std::nanf("")), 0);
  EXPECT_EQ(tf.classify(std::nanf("")).opacity, tf.entry(0).opacity);
  EXPECT_EQ(TransferFunction::index_of(-1.0f), 0);
  EXPECT_EQ(TransferFunction::index_of(2.0f), TransferFunction::kTableSize - 1);
}

TEST(StepClassifier, MatchesClassifyThenStepCorrection) {
  const auto tf = TransferFunction::density();
  RenderOptions o;
  o.step = 0.37f;
  o.value_lo = 0.2f;
  o.value_hi = 0.8f;
  const StepClassifier classify(tf, o);
  for (float raw = -0.5f; raw < 1.5f; raw += 0.001f) {
    const ControlPoint cp =
        tf.classify(std::clamp((raw - o.value_lo) / (o.value_hi - o.value_lo),
                               0.0f, 1.0f));
    const StepClassifier::Entry& e = classify(raw);
    ASSERT_EQ(e.r, cp.r);
    ASSERT_EQ(e.g, cp.g);
    ASSERT_EQ(e.b, cp.b);
    ASSERT_EQ(e.alpha, opacity_for_step(cp.opacity, o.step));
  }
  // An empty window classifies everything as the first entry.
  o.value_hi = o.value_lo;
  EXPECT_EQ(StepClassifier(tf, o)(0.9f).alpha, 0.0f);
}

TEST(OpacityForStep, BeerLambertProperties) {
  // Zero extinction -> transparent; large extinction -> opaque.
  EXPECT_FLOAT_EQ(opacity_for_step(0.0f, 1.0f), 0.0f);
  EXPECT_NEAR(opacity_for_step(100.0f, 1.0f), 1.0f, 1e-4f);
  // Two half-steps compose to one full step: (1-a)^2 = 1-a_full.
  const float a_half = opacity_for_step(0.3f, 0.5f);
  const float a_full = opacity_for_step(0.3f, 1.0f);
  EXPECT_NEAR((1.0f - a_half) * (1.0f - a_half), 1.0f - a_full, 1e-5f);
}

}  // namespace
}  // namespace visapult::render
