// Message framing and portable serialization.
//
// Every Visapult protocol message -- DPSS block requests, viewer light/heavy
// payloads, NetLogger events shipped to a collector -- is framed as
//
//   [magic u32][type u32][length u64][trace u64][span u64][payload ...]
//
// in little-endian byte order.  The trace/span pair is the request-tracing
// context (obs/trace.h): zero means untraced, anything else names the
// end-to-end request and this hop of it, so every component on the path can
// stamp lifeline events carrying the same trace id.  Replies echo the
// request's ids.  Payload layouts are defined by field lists (below) that
// Writer and Reader walk, so a truncated or corrupt payload surfaces as
// kDataLoss rather than undefined behaviour or an exception.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/status.h"
#include "net/stream.h"

namespace visapult::net {

inline constexpr std::uint32_t kMessageMagic = 0x56535031;  // "VSP1"

// Bytes on the wire before the payload.
inline constexpr std::size_t kFrameHeaderBytes = 32;

struct Message {
  std::uint32_t type = 0;
  // Request-tracing context, carried in the frame header (0 = untraced).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::vector<std::uint8_t> payload;
};

// Blocking send/recv of a framed message over any ByteStream.
core::Status send_message(ByteStream& stream, const Message& msg);
core::Result<Message> recv_message(ByteStream& stream,
                                   std::size_t max_payload = 1ull << 32);

// ---- field-level serialization ---------------------------------------------
//
// Every wire struct has one field list, written once for both directions:
//
//   template <class Io> void fields(Io& io, OpenRequest& r) {
//     io(r.dataset, r.auth_token, r.known_epoch);
//   }
//
// Writer appends the fields in order; Reader fills them in the same order.
// A field's wire form follows from its type:
//   * arithmetic types travel at their own width, little-endian; bool as
//     one 0/1 byte
//   * std::string: u32 length + bytes; byte vectors: u64 length + bytes
//   * std::vector<T>: u32 count + elements (wide(v): u64 count)
//   * any other struct: its own field list, found by argument-dependent
//     lookup in this namespace
// Enums are wrapped in enum_field(e, max), and a field that travels at a
// width other than its own in as<Wire>(x).
//
// Reader errors are sticky: the first truncated or corrupt field records a
// kDataLoss status, later fields are no-ops, and the caller checks status()
// once at the end.  Every decoded count is checked against remaining()
// before anything is allocated, so no payload can claim more elements than
// it has bytes.

// A field sent as `Wire` rather than its own type (a u16 port as u32).
// Reading rejects values that do not fit back into T.
template <class Wire, class T>
struct As {
  T& value;
};
template <class Wire, class T>
As<Wire, T> as(T& value) {
  return {value};
}

// An enum field; reading rejects values above `max`.
template <class E>
struct EnumField {
  E& value;
  E max;
};
template <class E>
EnumField<E> enum_field(E& value, E max) {
  return {value, max};
}

// A vector whose element count travels as u64 rather than u32.
template <class T>
struct Wide {
  std::vector<T>& value;
};
template <class T>
Wide<T> wide(std::vector<T>& value) {
  return {value};
}

class Writer {
 public:
  static constexpr bool kReading = false;

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void f32(float v) { raw(&v, 4); }
  void f64(double v) { raw(&v, 8); }
  void str(const std::string& s);                   // u32 length + bytes
  void bytes(const std::vector<std::uint8_t>& b);   // u64 length + bytes
  void raw(const void* data, std::size_t len);

  // Appends each field in order.
  template <class... Fs>
  void operator()(const Fs&... fs) {
    (field(fs), ...);
  }
  // Field lists validate while decoding; there is nothing to check here.
  void check(bool /*ok*/, const char* /*what*/) {}

  std::vector<std::uint8_t> take() { return std::move(buf_); }
  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  template <class T>
  std::enable_if_t<std::is_arithmetic_v<T>> field(T v) {
    raw(&v, sizeof v);
  }
  void field(const std::string& s) { str(s); }
  void field(const std::vector<std::uint8_t>& b) { bytes(b); }
  template <class T>
  void field(const std::vector<T>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    elements(v);
  }
  template <class T>
  void field(const Wide<T>& w) {
    u64(w.value.size());
    elements(w.value);
  }
  template <class Wire, class T>
  void field(const As<Wire, T>& a) {
    field(static_cast<Wire>(a.value));
  }
  template <class E>
  void field(const EnumField<E>& e) {
    field(static_cast<std::underlying_type_t<E>>(e.value));
  }
  // Field lists take T& so one list serves both directions; the Writer
  // only ever reads through it.
  template <class T>
  std::enable_if_t<std::is_class_v<T>> field(const T& t) {
    fields(*this, const_cast<T&>(t));
  }

  template <class T>
  void elements(const std::vector<T>& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      raw(v.data(), v.size() * sizeof(T));
    } else {
      for (const T& e : v) field(e);
    }
  }

  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  // Reads one T through its field list; the Result carries the first
  // error, if any.
  template <class T>
  core::Result<T> read() {
    T out{};
    (*this)(out);
    if (!ok()) return status_;
    return out;
  }
  core::Result<std::uint8_t> u8() { return read<std::uint8_t>(); }
  core::Result<std::uint32_t> u32() { return read<std::uint32_t>(); }
  core::Result<std::uint64_t> u64() { return read<std::uint64_t>(); }
  core::Result<std::int64_t> i64() { return read<std::int64_t>(); }
  core::Result<float> f32() { return read<float>(); }
  core::Result<double> f64() { return read<double>(); }
  core::Result<std::string> str() { return read<std::string>(); }
  core::Result<std::vector<std::uint8_t>> bytes() {
    return read<std::vector<std::uint8_t>>();
  }

  // Fills each field in order (no-ops once an error is recorded).
  template <class... Fs>
  void operator()(Fs&&... fs) {
    (field(std::forward<Fs>(fs)), ...);
  }
  // Records `what` as a kDataLoss error unless `ok`.
  void check(bool ok, const char* what) {
    if (!ok) fail(core::data_loss(what));
  }
  // Records `st` unless an earlier error is already recorded.
  void fail(core::Status st) {
    if (status_.is_ok()) status_ = std::move(st);
  }
  bool ok() const { return status_.is_ok(); }
  const core::Status& status() const { return status_; }

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  // True when the next n bytes exist; records truncation otherwise.
  bool fits(std::size_t n);
  // Copies the next n bytes to `dst` and advances.
  bool take(void* dst, std::size_t n);

  template <class T>
  std::enable_if_t<std::is_arithmetic_v<T>> field(T& v) {
    take(&v, sizeof v);
  }
  void field(bool& v);
  void field(std::string& s);
  void field(std::vector<std::uint8_t>& b);
  template <class T>
  void field(std::vector<T>& v) {
    std::uint32_t n = 0;
    field(n);
    elements(v, n);
  }
  template <class T>
  void field(Wide<T>&& w) {
    std::uint64_t n = 0;
    field(n);
    elements(w.value, n);
  }
  template <class Wire, class T>
  void field(As<Wire, T>&& a) {
    Wire w{};
    field(w);
    check(static_cast<Wire>(static_cast<T>(w)) == w,
          "field value out of range");
    if (ok()) a.value = static_cast<T>(w);
  }
  template <class E>
  void field(EnumField<E>&& e) {
    using U = std::make_unsigned_t<std::underlying_type_t<E>>;
    std::underlying_type_t<E> v{};
    field(v);
    check(static_cast<U>(v) <= static_cast<U>(e.max), "unknown enum value");
    if (ok()) e.value = static_cast<E>(v);
  }
  template <class T>
  std::enable_if_t<std::is_class_v<T>> field(T& t) {
    fields(*this, t);
  }

  template <class T>
  void elements(std::vector<T>& v, std::uint64_t n) {
    // Each element takes at least one byte (sizeof(T) in the bulk path), so
    // a count beyond the bytes left is corrupt.  Checking before the resize
    // caps both the allocation and the loop at the payload size.
    constexpr std::size_t kMinBytes =
        std::is_arithmetic_v<T> ? sizeof(T) : 1;
    check(n <= remaining() / kMinBytes, "element count exceeds payload");
    if (!ok()) return;
    v.resize(n);
    if constexpr (std::is_arithmetic_v<T>) {
      take(v.data(), n * sizeof(T));
    } else {
      for (T& e : v) {
        if (!ok()) return;
        field(e);
      }
    }
  }

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
  core::Status status_;
};

// Encodes `body` through its field list as a message of `type`.
template <class T>
Message encode(std::uint32_t type, const T& body) {
  Writer w;
  w(body);
  return Message{type, 0, 0, w.take()};
}

}  // namespace visapult::net
