#include "core/image.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

namespace visapult::core {

Pixel over(const Pixel& front, const Pixel& back) {
  const float k = 1.0f - front.a;
  return Pixel{front.r + k * back.r, front.g + k * back.g,
               front.b + k * back.b, front.a + k * back.a};
}

ImageRGBA::ImageRGBA(int width, int height, Pixel fill)
    : width_(width), height_(height),
      pixels_(static_cast<std::size_t>(width) * height, fill) {}

Pixel ImageRGBA::sample_clamped(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return Pixel{};
  return at(x, y);
}

Pixel ImageRGBA::sample_bilinear(float u, float v) const {
  if (empty()) return Pixel{};
  const float fx = u * (width_ - 1);
  const float fy = v * (height_ - 1);
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const float tx = fx - x0;
  const float ty = fy - y0;
  const Pixel p00 = sample_clamped(x0, y0);
  const Pixel p10 = sample_clamped(x0 + 1, y0);
  const Pixel p01 = sample_clamped(x0, y0 + 1);
  const Pixel p11 = sample_clamped(x0 + 1, y0 + 1);
  auto lerp = [](float a, float b, float t) { return a + (b - a) * t; };
  Pixel out;
  out.r = lerp(lerp(p00.r, p10.r, tx), lerp(p01.r, p11.r, tx), ty);
  out.g = lerp(lerp(p00.g, p10.g, tx), lerp(p01.g, p11.g, tx), ty);
  out.b = lerp(lerp(p00.b, p10.b, tx), lerp(p01.b, p11.b, tx), ty);
  out.a = lerp(lerp(p00.a, p10.a, tx), lerp(p01.a, p11.a, tx), ty);
  return out;
}

void ImageRGBA::fill(const Pixel& p) { std::fill(pixels_.begin(), pixels_.end(), p); }

Status ImageRGBA::composite_over(const ImageRGBA& front) {
  if (front.width_ != width_ || front.height_ != height_) {
    return invalid_argument("composite_over: image size mismatch");
  }
  for (std::size_t i = 0; i < pixels_.size(); ++i) {
    pixels_[i] = over(front.pixels_[i], pixels_[i]);
  }
  return Status::ok();
}

std::vector<std::uint8_t> ImageRGBA::to_bytes() const {
  std::vector<std::uint8_t> out(byte_size());
  if (!out.empty()) std::memcpy(out.data(), pixels_.data(), out.size());
  return out;
}

Result<ImageRGBA> ImageRGBA::from_bytes(int width, int height,
                                        const std::vector<std::uint8_t>& bytes) {
  if (width < 0 || height < 0) return invalid_argument("negative image size");
  // Compare in pixels: width * height fits in 62 bits, but the byte count
  // can wrap to match a short payload (2^30 x 2^30 pixels "need" 0 bytes).
  const std::size_t pixels = static_cast<std::size_t>(width) * height;
  if (bytes.size() % sizeof(Pixel) != 0 ||
      bytes.size() / sizeof(Pixel) != pixels) {
    return data_loss("image payload truncated: expected " +
                     std::to_string(pixels) + " pixels, got " +
                     std::to_string(bytes.size()) + " bytes");
  }
  ImageRGBA img(width, height);
  if (pixels) std::memcpy(img.pixels_.data(), bytes.data(), bytes.size());
  return img;
}

double ImageRGBA::mean_abs_diff(const ImageRGBA& a, const ImageRGBA& b) {
  if (a.width_ != b.width_ || a.height_ != b.height_ || a.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.pixels_.size(); ++i) {
    sum += std::abs(a.pixels_[i].r - b.pixels_[i].r);
    sum += std::abs(a.pixels_[i].g - b.pixels_[i].g);
    sum += std::abs(a.pixels_[i].b - b.pixels_[i].b);
    sum += std::abs(a.pixels_[i].a - b.pixels_[i].a);
  }
  return sum / (4.0 * static_cast<double>(a.pixels_.size()));
}

Status ImageRGBA::write_ppm(const std::string& path, float background) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return unavailable("cannot open " + path);
  f << "P6\n" << width_ << " " << height_ << "\n255\n";
  auto to_byte = [](float v) {
    return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 1.0f) * 255.0f + 0.5f);
  };
  std::vector<std::uint8_t> row(static_cast<std::size_t>(width_) * 3);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const Pixel& p = at(x, y);
      // Premultiplied source over an opaque grey background.
      const float k = 1.0f - p.a;
      row[3 * x + 0] = to_byte(p.r + k * background);
      row[3 * x + 1] = to_byte(p.g + k * background);
      row[3 * x + 2] = to_byte(p.b + k * background);
    }
    f.write(reinterpret_cast<const char*>(row.data()),
            static_cast<std::streamsize>(row.size()));
  }
  if (!f) return data_loss("short write to " + path);
  return Status::ok();
}

}  // namespace visapult::core
