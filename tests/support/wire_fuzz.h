// Wire-codec test helpers: hex rendering for pinned encodings, and a seeded
// mutation loop that feeds a decoder truncated and bit-flipped payloads.
//
// Without clang there is no libFuzzer; the loop is deterministic instead, so
// a failure names its seed, message type and round and replays exactly.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "net/message.h"

namespace visapult::test_support {

inline std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// One message type under test: a random-instance encoder, and a probe that
// decodes a message and re-encodes what it got.
struct WireCase {
  std::string name;
  std::function<net::Message(core::Rng&)> random;
  std::function<core::Result<net::Message>(const net::Message&)> reencode;
};

template <class Gen, class Enc, class Dec>
WireCase wire_case(std::string name, Gen gen, Enc enc, Dec dec) {
  return {std::move(name),
          [gen, enc](core::Rng& rng) { return enc(gen(rng)); },
          [enc, dec](const net::Message& m) -> core::Result<net::Message> {
            auto decoded = dec(m);
            if (!decoded.is_ok()) return decoded.status();
            return enc(decoded.value());
          }};
}

// For one random instance of `c`: it round-trips to identical bytes, every
// strict prefix of its payload is rejected, and `flips` rounds of one to
// three seeded bit flips decode to a value or a status, never an exception.
inline void fuzz_wire_case(const WireCase& c, core::Rng& rng, int flips) {
  SCOPED_TRACE(c.name);
  const net::Message original = c.random(rng);
  auto again = c.reencode(original);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(again.value().type, original.type);
  EXPECT_EQ(hex(again.value().payload), hex(original.payload));

  for (std::size_t len = 0; len < original.payload.size(); ++len) {
    net::Message cut = original;
    cut.payload.resize(len);
    core::Result<net::Message> got = core::data_loss("unset");
    ASSERT_NO_THROW(got = c.reencode(cut)) << "prefix " << len;
    EXPECT_FALSE(got.is_ok()) << "prefix " << len;
  }

  for (int i = 0; i < flips && !original.payload.empty(); ++i) {
    net::Message flipped = original;
    const int bits = 1 + static_cast<int>(rng.next_below(3));
    for (int b = 0; b < bits; ++b) {
      const std::size_t bit = rng.next_below(flipped.payload.size() * 8);
      flipped.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    ASSERT_NO_THROW(c.reencode(flipped)) << "flip round " << i;
  }
}

}  // namespace visapult::test_support
