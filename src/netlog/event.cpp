#include "netlog/event.h"

#include <charconv>
#include <cstdio>
#include <optional>
#include <sstream>

namespace visapult::netlog {

namespace {

// All of `s` as a T, or nullopt when it is malformed, only partly a number
// or out of T's range.  Never throws: the text comes off the network.
template <typename T>
std::optional<T> parse_whole(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

std::string Event::to_ulm() const {
  std::ostringstream os;
  char ts[32];
  std::snprintf(ts, sizeof ts, "%.6f", timestamp);
  os << "DATE=" << ts << " HOST=" << host << " PROG=" << program
     << " NL.EVNT=" << tag;
  if (frame >= 0) os << " FRAME=" << frame;
  if (rank >= 0) os << " RANK=" << rank;
  for (const auto& [k, v] : fields) os << " " << k << "=" << v;
  return os.str();
}

core::Result<Event> Event::from_ulm(const std::string& line) {
  Event e;
  std::istringstream is(line);
  std::string token;
  bool have_date = false, have_tag = false;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      return core::data_loss("malformed ULM token: " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "DATE") {
      const auto v = parse_whole<double>(value);
      if (!v) return core::data_loss("bad ULM DATE: " + value);
      e.timestamp = *v;
      have_date = true;
    } else if (key == "HOST") {
      e.host = value;
    } else if (key == "PROG") {
      e.program = value;
    } else if (key == "NL.EVNT") {
      e.tag = value;
      have_tag = true;
    } else if (key == "FRAME") {
      const auto v = parse_whole<std::int64_t>(value);
      if (!v) return core::data_loss("bad ULM FRAME: " + value);
      e.frame = *v;
    } else if (key == "RANK") {
      const auto v = parse_whole<int>(value);
      if (!v) return core::data_loss("bad ULM RANK: " + value);
      e.rank = *v;
    } else {
      e.fields.emplace_back(key, value);
    }
  }
  if (!have_date || !have_tag) {
    return core::data_loss("ULM line missing DATE or NL.EVNT: " + line);
  }
  return e;
}

std::string Event::field(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return {};
}

double Event::field_double(const std::string& key, double fallback) const {
  return parse_whole<double>(field(key)).value_or(fallback);
}

std::vector<std::string> nlv_tag_order() {
  using namespace tags;
  return {kBeFrameStart, kBeLoadStart,  kBeLoadEnd,   kBeLightSend,
          kBeLightEnd,   kBeRenderStart, kBeRenderEnd, kBeHeavySend,
          kBeHeavyEnd,   kBeFrameEnd,   kVFrameStart, kVLightStart,
          kVLightEnd,    kVHeavyStart,  kVHeavyEnd,   kVFrameEnd};
}

}  // namespace visapult::netlog
