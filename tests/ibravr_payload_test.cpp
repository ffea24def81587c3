#include "ibravr/payload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "support/wire_fuzz.h"

namespace visapult::ibravr {
namespace {

using test_support::fuzz_wire_case;
using test_support::hex;
using test_support::wire_case;
using test_support::WireCase;

TEST(Payload, HelloRoundTrip) {
  Hello h;
  h.timesteps = 265;
  h.rank = 3;
  h.world_size = 8;
  h.volume_dims = {640, 256, 256};
  auto back = decode_hello(encode_hello(h));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().timesteps, 265);
  EXPECT_EQ(back.value().rank, 3);
  EXPECT_EQ(back.value().world_size, 8);
  EXPECT_EQ(back.value().volume_dims, (vol::Dims{640, 256, 256}));
}

TEST(Payload, LightRoundTrip) {
  LightPayload p;
  p.frame = 12;
  p.rank = 2;
  p.info.volume_dims = {64, 32, 32};
  p.info.brick.z0 = 8;
  p.info.brick.dims = {64, 32, 8};
  p.info.axis = vol::Axis::kZ;
  p.info.slab_index = 1;
  p.info.slab_count = 4;
  p.tex_width = 64;
  p.tex_height = 32;
  p.mesh_nu = 8;
  p.mesh_nv = 8;
  auto back = decode_light(encode_light(p));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().frame, 12);
  EXPECT_EQ(back.value().info.brick.z0, 8);
  EXPECT_EQ(back.value().info.axis, vol::Axis::kZ);
  EXPECT_EQ(back.value().mesh_nu, 8u);
}

TEST(Payload, LightIsLight) {
  // "Visualization metadata is on the order of 256 bytes."
  LightPayload p;
  EXPECT_LT(p.wire_bytes(), 256u);
}

TEST(Payload, HeavyRoundTripWithTexture) {
  HeavyPayload p;
  p.frame = 5;
  p.rank = 1;
  p.texture = core::ImageRGBA(8, 4);
  p.texture.at(3, 2) = core::Pixel{0.5f, 0.25f, 0.125f, 1.0f};
  auto back = decode_heavy(encode_heavy(p));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().texture.width(), 8);
  EXPECT_EQ(core::ImageRGBA::mean_abs_diff(back.value().texture, p.texture), 0.0);
}

TEST(Payload, HeavyRoundTripWithOffsetsAndGrid) {
  HeavyPayload p;
  p.texture = core::ImageRGBA(2, 2);
  p.offsets = {0.5f, -1.5f, 2.0f, 0.0f};
  p.grid.push_back(vol::LineSegment{0, 1, 2, 3, 4, 5, 1});
  p.grid.push_back(vol::LineSegment{6, 7, 8, 9, 10, 11, 2});
  auto back = decode_heavy(encode_heavy(p));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().offsets, p.offsets);
  ASSERT_EQ(back.value().grid.size(), 2u);
  EXPECT_FLOAT_EQ(back.value().grid[1].bz, 11.0f);
  EXPECT_EQ(back.value().grid[1].level, 2);
}

TEST(Payload, HeavyIsHeavy) {
  // "a typical size is on the order of 0.25 to 1.0 megabytes per texture"
  // -- for the paper's 640x256 transverse extent at float RGBA we are in
  // the same regime.
  HeavyPayload p;
  p.texture = core::ImageRGBA(256, 256);
  EXPECT_GT(p.wire_bytes(), 256u * 1024);
  EXPECT_LT(p.wire_bytes(), 8u * 1024 * 1024);
}

TEST(Payload, CorruptAxisRejected) {
  LightPayload p;
  auto msg = encode_light(p);
  // The axis field sits after frame(8) + rank(4) + dims(12) + brick
  // origin(12) + brick dims(12) = 48 bytes.
  msg.payload[48] = 9;
  EXPECT_FALSE(decode_light(msg).is_ok());
}

TEST(Payload, TruncatedHeavyRejected) {
  HeavyPayload p;
  p.texture = core::ImageRGBA(4, 4);
  auto msg = encode_heavy(p);
  msg.payload.resize(msg.payload.size() - 8);
  EXPECT_FALSE(decode_heavy(msg).is_ok());
}

TEST(Payload, WrongMessageTypeRejected) {
  auto end = encode_end_of_data();
  EXPECT_FALSE(decode_hello(end).is_ok());
  EXPECT_FALSE(decode_light(end).is_ok());
  EXPECT_FALSE(decode_heavy(end).is_ok());
  EXPECT_EQ(end.type, static_cast<std::uint32_t>(kEndOfData));
}

// ---- wire-format pins and hostile input -------------------------------------

// One fixed instance of every payload message, pinned to the bytes every
// earlier release put on the wire.
TEST(PayloadWire, EveryMessageEncodesToPinnedBytes) {
  Hello hello;
  hello.timesteps = 265;
  hello.rank = 3;
  hello.world_size = 8;
  hello.volume_dims = {64, 32, 16};

  LightPayload light;
  light.frame = 12;
  light.rank = 2;
  light.info.volume_dims = {64, 32, 16};
  light.info.brick.x0 = 1;
  light.info.brick.y0 = 2;
  light.info.brick.z0 = 8;
  light.info.brick.dims = {64, 32, 8};
  light.info.axis = vol::Axis::kY;
  light.info.slab_index = 1;
  light.info.slab_count = 4;
  light.tex_width = 64;
  light.tex_height = 32;
  light.mesh_nu = 8;
  light.mesh_nv = 9;

  HeavyPayload heavy;
  heavy.frame = 5;
  heavy.rank = -1;
  heavy.texture = core::ImageRGBA(2, 1);
  heavy.texture.at(1, 0) = core::Pixel{0.5f, 0.25f, 0.125f, 1.0f};
  heavy.offsets = {0.5f, -1.0f};
  heavy.grid = {vol::LineSegment{1, 2, 3, 4, 5, 6, 2}};

  struct Pin {
    const char* name;
    std::uint32_t type;
    net::Message msg;
    const char* hex;
  };
  const std::vector<Pin> pins = {
      {"Hello", kHello,
       encode_hello(hello),
       "09010000000000000300000008000000400000002000000010000000"},
      {"Light", kLightPayload,
       encode_light(light),
       "0c00000000000000020000004000000020000000100000000100000002000000"
       "0800000040000000200000000800000001000000010000000400000040000000"
       "20000000100000000800000009000000"},
      {"Heavy", kHeavyPayload,
       encode_heavy(heavy),
       "0500000000000000ffffffff0200000001000000200000000000000000000000"
       "0000000000000000000000000000003f0000803e0000003e0000803f02000000"
       "000000000000003f000080bf01000000000000000000803f0000004000004040"
       "000080400000a0400000c04002000000"},
      {"EndOfData", kEndOfData,
       encode_end_of_data(),
       ""},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(pin.msg.type, pin.type) << pin.name;
    EXPECT_EQ(hex(pin.msg.payload), pin.hex) << pin.name;
  }
}

// A heavy payload whose texture and counts are all attacker-chosen.
net::Message hostile_heavy(std::uint32_t width, std::uint32_t height,
                           std::uint64_t offset_count) {
  net::Writer w;
  w.i64(0);       // frame
  w.u32(0);       // rank
  w.u32(width);
  w.u32(height);
  w.u64(0);       // texture bytes
  w.u64(offset_count);
  return {kHeavyPayload, 0, 0, w.take()};
}

// These frames once threw out of decode_heavy (length_error from a resize)
// and killed the viewer; now they are corrupt payloads like any other.
TEST(PayloadWire, HostileCountsAreDataLossNotExceptions) {
  const net::Message offsets = hostile_heavy(0, 0, 1ull << 62);
  ASSERT_EQ(offsets.payload.size(), 36u);
  auto got = decode_heavy(offsets);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), core::StatusCode::kDataLoss);

  // 2^30 x 2^30 RGBA float pixels overflow the size computation to zero
  // bytes, which an empty texture would otherwise "match".
  net::Message texture = hostile_heavy(1u << 30, 1u << 30, 0);
  auto tex = decode_heavy(texture);
  ASSERT_FALSE(tex.is_ok());
  EXPECT_EQ(tex.status().code(), core::StatusCode::kDataLoss);

  net::Writer grid;
  grid.i64(0);
  grid.u32(0);
  grid.u32(0);
  grid.u32(0);
  grid.u64(0);
  grid.u64(0);                    // offsets
  grid.u64(0xFFFFFFFFFFFFull);    // grid segments
  auto segs = decode_heavy({kHeavyPayload, 0, 0, grid.take()});
  ASSERT_FALSE(segs.is_ok());
  EXPECT_EQ(segs.status().code(), core::StatusCode::kDataLoss);
}

// ---- seeded mutation fuzz over every payload type ---------------------------

int random_int(core::Rng& rng) { return static_cast<int>(rng.next_u64()); }

vol::Dims random_dims(core::Rng& rng) {
  return {random_int(rng), random_int(rng), random_int(rng)};
}

float random_float(core::Rng& rng) {
  return static_cast<float>(rng.uniform(-100.0, 100.0));
}

std::vector<WireCase> every_payload_type() {
  std::vector<WireCase> cases;
  cases.push_back(wire_case(
      "Hello",
      [](core::Rng& rng) {
        return Hello{static_cast<std::int64_t>(rng.next_u64()),
                     random_int(rng), random_int(rng), random_dims(rng)};
      },
      encode_hello, decode_hello));
  cases.push_back(wire_case(
      "Light",
      [](core::Rng& rng) {
        LightPayload p;
        p.frame = static_cast<std::int64_t>(rng.next_u64());
        p.rank = random_int(rng);
        p.info.volume_dims = random_dims(rng);
        p.info.brick.x0 = random_int(rng);
        p.info.brick.y0 = random_int(rng);
        p.info.brick.z0 = random_int(rng);
        p.info.brick.dims = random_dims(rng);
        p.info.axis = static_cast<vol::Axis>(rng.next_below(3));
        p.info.slab_index = random_int(rng);
        p.info.slab_count = random_int(rng);
        p.tex_width = static_cast<std::uint32_t>(rng.next_u64());
        p.tex_height = static_cast<std::uint32_t>(rng.next_u64());
        p.bytes_per_pixel = static_cast<std::uint32_t>(rng.next_u64());
        p.mesh_nu = static_cast<std::uint32_t>(rng.next_u64());
        p.mesh_nv = static_cast<std::uint32_t>(rng.next_u64());
        return p;
      },
      encode_light, decode_light));
  cases.push_back(wire_case(
      "Heavy",
      [](core::Rng& rng) {
        HeavyPayload p;
        p.frame = static_cast<std::int64_t>(rng.next_u64());
        p.rank = random_int(rng);
        p.texture = core::ImageRGBA(static_cast<int>(1 + rng.next_below(3)),
                                    static_cast<int>(1 + rng.next_below(3)));
        p.texture.fill(core::Pixel{random_float(rng), random_float(rng),
                                   random_float(rng), random_float(rng)});
        p.offsets.resize(rng.next_below(5));
        for (float& o : p.offsets) o = random_float(rng);
        p.grid.resize(rng.next_below(3));
        for (auto& seg : p.grid) {
          seg = vol::LineSegment{random_float(rng), random_float(rng),
                                 random_float(rng), random_float(rng),
                                 random_float(rng), random_float(rng),
                                 random_int(rng)};
        }
        return p;
      },
      encode_heavy, decode_heavy));
  return cases;
}

TEST(PayloadWire, SeededMutationFuzzNeverThrows) {
  core::Rng rng(20261017);
  for (const WireCase& c : every_payload_type()) {
    fuzz_wire_case(c, rng, /*flips=*/400);
  }
}

}  // namespace
}  // namespace visapult::ibravr
