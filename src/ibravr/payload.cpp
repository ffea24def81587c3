#include "ibravr/payload.h"

// Field lists for the payload structs and the types they embed, walked by
// net::Writer and net::Reader alike (see net/message.h).  They live in
// namespace net for argument-dependent lookup and are private to this file.
namespace visapult::net {

template <class Io>
static void fields(Io& io, vol::Dims& d) {
  io(d.nx, d.ny, d.nz);
}

template <class Io>
static void fields(Io& io, vol::Brick& b) {
  io(b.x0, b.y0, b.z0, b.dims);
}

template <class Io>
static void fields(Io& io, vol::LineSegment& s) {
  io(s.ax, s.ay, s.az, s.bx, s.by, s.bz, s.level);
}

template <class Io>
static void fields(Io& io, ibravr::SlabInfo& s) {
  io(s.volume_dims, s.brick, enum_field(s.axis, vol::Axis::kZ), s.slab_index,
     s.slab_count);
}

// Width, height, then the float RGBA pixels as one byte field.
template <class Io>
static void fields(Io& io, core::ImageRGBA& img) {
  int width = img.width();
  int height = img.height();
  if constexpr (Io::kReading) {
    std::vector<std::uint8_t> bytes;
    io(width, height, bytes);
    if (!io.ok()) return;
    auto decoded = core::ImageRGBA::from_bytes(width, height, bytes);
    if (!decoded.is_ok()) return io.fail(decoded.status());
    img = std::move(decoded).take();
  } else {
    io(width, height, img.to_bytes());
  }
}

template <class Io>
static void fields(Io& io, ibravr::Hello& h) {
  io(h.timesteps, h.rank, h.world_size, h.volume_dims);
}

template <class Io>
static void fields(Io& io, ibravr::LightPayload& p) {
  io(p.frame, p.rank, p.info, p.tex_width, p.tex_height, p.bytes_per_pixel,
     p.mesh_nu, p.mesh_nv);
}

template <class Io>
static void fields(Io& io, ibravr::HeavyPayload& p) {
  io(p.frame, p.rank, p.texture, wide(p.offsets), wide(p.grid));
}

}  // namespace visapult::net

namespace visapult::ibravr {

namespace {

template <class T>
core::Result<T> decode(const net::Message& m, PayloadType type,
                       const char* expected) {
  if (m.type != type) return core::data_loss(expected);
  return net::Reader(m.payload).read<T>();
}

}  // namespace

std::size_t LightPayload::wire_bytes() const { return encode_light(*this).payload.size() + 16; }

std::size_t HeavyPayload::wire_bytes() const {
  return texture.byte_size() + offsets.size() * sizeof(float) +
         grid.size() * (6 * sizeof(float) + 4) + 64;
}

net::Message encode_hello(const Hello& h) { return net::encode(kHello, h); }
core::Result<Hello> decode_hello(const net::Message& m) {
  return decode<Hello>(m, kHello, "expected hello message");
}

net::Message encode_light(const LightPayload& p) {
  return net::encode(kLightPayload, p);
}
core::Result<LightPayload> decode_light(const net::Message& m) {
  return decode<LightPayload>(m, kLightPayload, "expected light payload");
}

net::Message encode_heavy(const HeavyPayload& p) {
  return net::encode(kHeavyPayload, p);
}
core::Result<HeavyPayload> decode_heavy(const net::Message& m) {
  return decode<HeavyPayload>(m, kHeavyPayload, "expected heavy payload");
}

net::Message encode_end_of_data() {
  return net::Message{kEndOfData, 0, 0, {}};
}

}  // namespace visapult::ibravr
