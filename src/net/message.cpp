#include "net/message.h"

#include <cstdint>

namespace visapult::net {

// std::endian is C++20; under C++17 probe the compiler macro instead.
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "wire format assumes a little-endian host (x86-64/aarch64)");
#elif defined(_MSC_VER)
// MSVC does not define __BYTE_ORDER__; every platform it targets
// (x86, x64, ARM64 Windows) is little-endian.
#else
#error "cannot verify host endianness; the wire format requires little-endian"
#endif

core::Status send_message(ByteStream& stream, const Message& msg) {
  std::uint8_t header[kFrameHeaderBytes];
  std::uint32_t magic = kMessageMagic;
  std::uint64_t len = msg.payload.size();
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &msg.type, 4);
  std::memcpy(header + 8, &len, 8);
  std::memcpy(header + 16, &msg.trace_id, 8);
  std::memcpy(header + 24, &msg.span_id, 8);
  if (auto st = stream.send_all(header, sizeof header); !st.is_ok()) return st;
  return stream.send_all(msg.payload.data(), msg.payload.size());
}

core::Result<Message> recv_message(ByteStream& stream, std::size_t max_payload) {
  std::uint8_t header[kFrameHeaderBytes];
  if (auto st = stream.recv_all(header, sizeof header); !st.is_ok()) return st;
  std::uint32_t magic, type;
  std::uint64_t len;
  std::memcpy(&magic, header + 0, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  if (magic != kMessageMagic) {
    return core::data_loss("bad message magic (stream desynchronised)");
  }
  if (len > max_payload) {
    return core::data_loss("message payload exceeds limit: " + std::to_string(len));
  }
  Message msg;
  msg.type = type;
  std::memcpy(&msg.trace_id, header + 16, 8);
  std::memcpy(&msg.span_id, header + 24, 8);
  msg.payload.resize(len);
  if (len > 0) {
    if (auto st = stream.recv_all(msg.payload.data(), len); !st.is_ok()) return st;
  }
  return msg;
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void Writer::bytes(const std::vector<std::uint8_t>& b) {
  u64(b.size());
  raw(b.data(), b.size());
}

void Writer::raw(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

bool Reader::fits(std::size_t n) {
  if (!ok()) return false;
  if (remaining() < n) {
    fail(core::data_loss("truncated payload: wanted " + std::to_string(n) +
                         " bytes, have " + std::to_string(remaining())));
    return false;
  }
  return true;
}

bool Reader::take(void* dst, std::size_t n) {
  if (!fits(n)) return false;
  if (n > 0) std::memcpy(dst, buf_.data() + pos_, n);
  pos_ += n;
  return true;
}

void Reader::field(bool& v) {
  std::uint8_t b = 0;
  if (take(&b, 1)) v = b != 0;
}

void Reader::field(std::string& s) {
  std::uint32_t n = 0;
  field(n);
  if (!fits(n)) return;
  s.assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
  pos_ += n;
}

void Reader::field(std::vector<std::uint8_t>& b) {
  std::uint64_t n = 0;
  field(n);
  if (!fits(n)) return;
  const auto* first = buf_.data() + pos_;
  b.assign(first, first + n);
  pos_ += n;
}

}  // namespace visapult::net
