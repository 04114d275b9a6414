#include "core/model_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#if !(defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L)
// newlocale/uselocale are POSIX, declared in <locale.h> (not <clocale>);
// macOS additionally keeps them in <xlocale.h>.
#include <locale.h>  // NOLINT(modernize-deprecated-headers)
#if defined(__APPLE__)
#include <xlocale.h>
#endif
#endif

#include "core/signature_method.hpp"

namespace csm::core::codec {
namespace {

using common::wire::append_f64;
using common::wire::append_u32;
using common::wire::append_u64;
using common::wire::load_u32;
using common::wire::load_u64;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ModelCodec: " + what);
}

std::string quoted(std::string_view name) {
  // Built incrementally: GCC 12 raises a bogus -Wrestrict on the chained
  // operator+ spelling.
  std::string out;
  out.reserve(name.size() + 2);
  out += '"';
  out += name;
  out += '"';
  return out;
}

// --- binary field type tags -------------------------------------------------

constexpr std::uint8_t kTypeU64 = 1;
constexpr std::uint8_t kTypeF64 = 2;
constexpr std::uint8_t kTypeU64Array = 3;
constexpr std::uint8_t kTypeF64Array = 4;

const char* type_name(std::uint8_t type) {
  switch (type) {
    case kTypeU64:
      return "u64";
    case kTypeF64:
      return "f64";
    case kTypeU64Array:
      return "u64[]";
    case kTypeF64Array:
      return "f64[]";
    default:
      return "unknown";
  }
}

// --- text helpers -----------------------------------------------------------

// The text form is a transport format, so it must not bend with the host
// locale: an embedding application that called setlocale() into a
// comma-decimal locale would otherwise write non-portable models and fail
// to parse portable ones. <charconv> is locale-blind by specification, and
// std::to_chars with an explicit precision is defined to produce exactly
// printf "%.17g" in the "C" locale; toolchains without the floating-point
// overloads (AppleClang's libc++) fall back to the C library pinned to a
// per-thread "C" locale via uselocale().
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
#define CSM_CODEC_FP_CHARCONV 1
#else
#define CSM_CODEC_FP_CHARCONV 0
#endif

#if !CSM_CODEC_FP_CHARCONV
locale_t c_numeric_locale() {
  static const locale_t loc =
      ::newlocale(LC_ALL_MASK, "C", static_cast<locale_t>(nullptr));
  return loc;
}
#endif

std::string format_f64(double v) {
  std::array<char, 40> buf{};
#if CSM_CODEC_FP_CHARCONV
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                       std::chars_format::general, 17);
  if (ec != std::errc()) {
    throw std::logic_error("ModelCodec: cannot format double");
  }
  return std::string(buf.data(), ptr);
#else
  const locale_t prev = ::uselocale(c_numeric_locale());
  const int n = std::snprintf(buf.data(), buf.size(), "%.17g", v);
  ::uselocale(prev);
  return std::string(buf.data(), static_cast<std::size_t>(n));
#endif
}

// A declared element count is untrusted until the elements actually parse:
// reserving it verbatim lets a ~20-byte hostile body demand a 512 MB
// allocation (kMaxFieldElements * 8) before the first missing element fails
// the parse (fuzz regression fuzz/regressions/model-text/count-amplification).
// Geometric push_back growth costs little for honest large arrays.
constexpr std::uint64_t kMaxUpFrontReserve = 4096;

std::size_t clamped_reserve(std::uint64_t count) {
  return static_cast<std::size_t>(std::min(count, kMaxUpFrontReserve));
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared helper checks
// ---------------------------------------------------------------------------

void Sink::sizes(std::string_view name, std::span<const std::size_t> values) {
  std::vector<std::uint64_t> wide(values.begin(), values.end());
  u64_array(name, wide);
}

std::size_t Source::size(std::string_view name) {
  const std::uint64_t v = u64(name);
  if (v > std::numeric_limits<std::size_t>::max()) {
    fail("field " + quoted(name) + " value does not fit std::size_t");
  }
  return static_cast<std::size_t>(v);
}

bool Source::flag(std::string_view name) {
  const std::uint64_t v = u64(name);
  if (v > 1) {
    fail("field " + quoted(name) + " is not a boolean flag (got " +
         std::to_string(v) + ")");
  }
  return v == 1;
}

std::vector<std::size_t> Source::sizes(std::string_view name) {
  const std::vector<std::uint64_t> wide = u64_array(name);
  std::vector<std::size_t> out;
  out.reserve(wide.size());
  for (const std::uint64_t v : wide) {
    if (v > std::numeric_limits<std::size_t>::max()) {
      fail("field " + quoted(name) + " element does not fit std::size_t");
    }
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Text back-end
// ---------------------------------------------------------------------------

void TextSink::u64(std::string_view name, std::uint64_t value) {
  body_ += name;
  body_ += ' ';
  body_ += std::to_string(value);
  body_ += '\n';
}

void TextSink::f64(std::string_view name, double value) {
  body_ += name;
  body_ += ' ';
  body_ += format_f64(value);
  body_ += '\n';
}

void TextSink::u64_array(std::string_view name,
                         std::span<const std::uint64_t> values) {
  body_ += name;
  body_ += ' ';
  body_ += std::to_string(values.size());
  for (const std::uint64_t v : values) {
    body_ += ' ';
    body_ += std::to_string(v);
  }
  body_ += '\n';
}

void TextSink::f64_array(std::string_view name,
                         std::span<const double> values) {
  body_ += name;
  body_ += ' ';
  body_ += std::to_string(values.size());
  for (const double v : values) {
    body_ += ' ';
    body_ += format_f64(v);
  }
  body_ += '\n';
}

void TextSource::expect_name(std::string_view name) {
  std::string token;
  if (!(in_ >> token)) {
    fail("missing field " + quoted(name));
  }
  if (token != name) {
    fail("expected field " + quoted(name) + ", found " + quoted(token));
  }
}

std::uint64_t TextSource::parse_u64(std::string_view name) {
  std::string token;
  if (!(in_ >> token)) {
    fail("truncated field " + quoted(name));
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    fail("field " + quoted(name) + " is not an unsigned integer (got " +
         quoted(token) + ")");
  }
  return value;
}

double TextSource::parse_f64(std::string_view name) {
  std::string token;
  if (!(in_ >> token)) {
    fail("truncated field " + quoted(name));
  }
  double value = 0.0;
  bool parsed = false;
#if CSM_CODEC_FP_CHARCONV
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  parsed = ec == std::errc() && ptr == token.data() + token.size();
#else
  const char* begin = token.c_str();
  char* end = nullptr;
  const locale_t prev = ::uselocale(c_numeric_locale());
  value = std::strtod(begin, &end);
  ::uselocale(prev);
  parsed = end == begin + token.size();
#endif
  if (!parsed) {
    fail("field " + quoted(name) + " is not a number (got " + quoted(token) +
         ")");
  }
  return value;
}

std::uint64_t TextSource::u64(std::string_view name) {
  expect_name(name);
  return parse_u64(name);
}

double TextSource::f64(std::string_view name) {
  expect_name(name);
  return parse_f64(name);
}

std::vector<std::uint64_t> TextSource::u64_array(std::string_view name) {
  expect_name(name);
  const std::uint64_t count = parse_u64(name);
  if (count > kMaxFieldElements) {
    fail("field " + quoted(name) + " count " + std::to_string(count) +
         " exceeds the element cap");
  }
  std::vector<std::uint64_t> values;
  values.reserve(clamped_reserve(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(parse_u64(name));
  }
  return values;
}

std::vector<double> TextSource::f64_array(std::string_view name) {
  expect_name(name);
  const std::uint64_t count = parse_u64(name);
  if (count > kMaxFieldElements) {
    fail("field " + quoted(name) + " count " + std::to_string(count) +
         " exceeds the element cap");
  }
  std::vector<double> values;
  values.reserve(clamped_reserve(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(parse_f64(name));
  }
  return values;
}

void TextSource::finish() {
  std::string token;
  if (in_ >> token) {
    fail("trailing data after last field (starts with " + quoted(token) + ")");
  }
}

// ---------------------------------------------------------------------------
// Binary back-end
// ---------------------------------------------------------------------------

void BinarySink::field_header(std::uint8_t type, std::string_view name,
                              std::uint64_t count) {
  if (name.empty() || name.size() > 255) {
    throw std::logic_error("ModelCodec: field name must be 1..255 bytes");
  }
  if (count > kMaxFieldElements) {
    throw std::logic_error("ModelCodec: field " + quoted(name) +
                           " exceeds the element cap");
  }
  body_.push_back(type);
  body_.push_back(static_cast<std::uint8_t>(name.size()));
  body_.insert(body_.end(), name.begin(), name.end());
  append_u32(body_, static_cast<std::uint32_t>(count));
}

void BinarySink::u64(std::string_view name, std::uint64_t value) {
  field_header(kTypeU64, name, 1);
  append_u64(body_, value);
}

void BinarySink::f64(std::string_view name, double value) {
  field_header(kTypeF64, name, 1);
  append_f64(body_, value);
}

void BinarySink::u64_array(std::string_view name,
                           std::span<const std::uint64_t> values) {
  field_header(kTypeU64Array, name, values.size());
  for (const std::uint64_t v : values) {
    append_u64(body_, v);
  }
}

void BinarySink::f64_array(std::string_view name,
                           std::span<const double> values) {
  field_header(kTypeF64Array, name, values.size());
  for (const double v : values) {
    append_f64(body_, v);
  }
}

std::uint64_t BinarySource::field_header(std::uint8_t type,
                                         std::string_view name) {
  const std::size_t field_offset = offset();
  if (body_.size() - cursor_ < 2) {
    fail("truncated field header for " + quoted(name) + " at offset " +
         std::to_string(field_offset));
  }
  const std::uint8_t found_type = body_[cursor_];
  const std::size_t name_len = body_[cursor_ + 1];
  cursor_ += 2;
  if (body_.size() - cursor_ < name_len + 4) {
    fail("truncated field header for " + quoted(name) + " at offset " +
         std::to_string(field_offset));
  }
  const std::string_view found_name(
      reinterpret_cast<const char*>(body_.data() + cursor_), name_len);
  if (found_name != name) {
    fail("expected field " + quoted(name) + ", found " + quoted(found_name) +
         " at offset " + std::to_string(field_offset));
  }
  if (found_type != type) {
    fail("field " + quoted(name) + " has type " + type_name(found_type) +
         ", expected " + type_name(type) + " at offset " +
         std::to_string(field_offset));
  }
  cursor_ += name_len;
  const std::uint32_t count = load_u32(body_.data() + cursor_);
  cursor_ += 4;
  if (count > kMaxFieldElements) {
    fail("field " + quoted(name) + " count " + std::to_string(count) +
         " exceeds the element cap at offset " + std::to_string(field_offset));
  }
  if ((type == kTypeU64 || type == kTypeF64) && count != 1) {
    fail("scalar field " + quoted(name) + " has count " +
         std::to_string(count) + " at offset " + std::to_string(field_offset));
  }
  if (body_.size() - cursor_ < static_cast<std::size_t>(count) * 8) {
    fail("truncated field " + quoted(name) + " payload at offset " +
         std::to_string(offset()));
  }
  return count;
}

std::uint64_t BinarySource::u64(std::string_view name) {
  field_header(kTypeU64, name);
  const std::uint64_t v = load_u64(body_.data() + cursor_);
  cursor_ += 8;
  return v;
}

double BinarySource::f64(std::string_view name) {
  field_header(kTypeF64, name);
  const std::uint64_t bits = load_u64(body_.data() + cursor_);
  cursor_ += 8;
  return std::bit_cast<double>(bits);
}

std::vector<std::uint64_t> BinarySource::u64_array(std::string_view name) {
  const std::uint64_t count = field_header(kTypeU64Array, name);
  std::vector<std::uint64_t> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(load_u64(body_.data() + cursor_));
    cursor_ += 8;
  }
  return values;
}

std::vector<double> BinarySource::f64_array(std::string_view name) {
  const std::uint64_t count = field_header(kTypeF64Array, name);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(std::bit_cast<double>(load_u64(body_.data() + cursor_)));
    cursor_ += 8;
  }
  return values;
}

void BinarySource::finish() {
  if (cursor_ != body_.size()) {
    fail(std::to_string(body_.size() - cursor_) +
         " trailing bytes after last field at offset " +
         std::to_string(offset()));
  }
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

bool is_binary_record(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= 4 && bytes[0] == kBinaryMagic[0] &&
         bytes[1] == kBinaryMagic[1] && bytes[2] == kBinaryMagic[2] &&
         bytes[3] == kBinaryMagic[3];
}

std::vector<std::uint8_t> frame_record(std::string_view key,
                                       std::span<const std::uint8_t> body) {
  if (key.empty() || key.size() > 255) {
    throw std::logic_error("ModelCodec: record key must be 1..255 bytes");
  }
  if (body.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::logic_error("ModelCodec: record body exceeds 4 GiB");
  }
  std::vector<std::uint8_t> record;
  record.reserve(4 + 1 + 1 + key.size() + 4 + body.size() + 4);
  record.insert(record.end(), std::begin(kBinaryMagic), std::end(kBinaryMagic));
  record.push_back(kBinaryVersion);
  record.push_back(static_cast<std::uint8_t>(key.size()));
  record.insert(record.end(), key.begin(), key.end());
  append_u32(record, static_cast<std::uint32_t>(body.size()));
  record.insert(record.end(), body.begin(), body.end());
  append_u32(record, crc32(record));
  return record;
}

RecordView parse_record(std::span<const std::uint8_t> record) {
  if (!is_binary_record(record)) {
    fail("not a binary model record (bad magic)");
  }
  if (record.size() < 6) {
    fail("truncated record header (" + std::to_string(record.size()) +
         " bytes)");
  }
  RecordView view;
  view.version = record[4];
  if (view.version != kBinaryVersion) {
    fail("unsupported binary model version " + std::to_string(view.version) +
         " (expected " + std::to_string(kBinaryVersion) + ")");
  }
  const std::size_t key_len = record[5];
  std::size_t cursor = 6;
  if (key_len == 0) {
    fail("empty record key at offset 5");
  }
  if (record.size() - cursor < key_len + 4) {
    fail("truncated record key at offset " + std::to_string(cursor));
  }
  view.key.assign(reinterpret_cast<const char*>(record.data() + cursor),
                  key_len);
  cursor += key_len;
  const std::uint32_t body_len = load_u32(record.data() + cursor);
  cursor += 4;
  // Compare in 64 bits: body_len is untrusted and `body_len + 4` wraps a
  // 32-bit size_t, which would let a truncated record pass this check and
  // run subspan() out of bounds.
  const std::uint64_t remaining = record.size() - cursor;
  const std::uint64_t body_and_crc = std::uint64_t{body_len} + 4;
  if (remaining < body_and_crc) {
    fail("truncated record body at offset " + std::to_string(cursor) +
         " (declared " + std::to_string(body_len) + " bytes)");
  }
  if (remaining != body_and_crc) {
    fail(std::to_string(remaining - body_and_crc) +
         " trailing bytes after record CRC");
  }
  view.body = record.subspan(cursor, body_len);
  view.body_offset = cursor;
  cursor += body_len;
  const std::uint32_t stored = load_u32(record.data() + cursor);
  const std::uint32_t computed = crc32(record.first(cursor));
  if (stored != computed) {
    fail("CRC mismatch at offset " + std::to_string(cursor) + " (stored " +
         std::to_string(stored) + ", computed " + std::to_string(computed) +
         ")");
  }
  return view;
}

// ---------------------------------------------------------------------------
// Whole-method encoders
// ---------------------------------------------------------------------------

namespace {

std::string checked_key(const SignatureMethod& method) {
  const std::string key = method.codec_key();
  if (key.empty()) {
    throw std::logic_error(method.name() +
                           ": method does not support the model codec");
  }
  if (!method.trained()) {
    throw std::logic_error(method.name() +
                           ": cannot serialize an untrained method");
  }
  return key;
}

}  // namespace

std::string encode_text(const SignatureMethod& method) {
  const std::string key = checked_key(method);
  TextSink sink;
  method.save(sink);
  return text_header(key) + sink.body();
}

std::vector<std::uint8_t> encode_binary(const SignatureMethod& method) {
  const std::string key = checked_key(method);
  BinarySink sink;
  method.save(sink);
  return frame_record(key, sink.body());
}

}  // namespace csm::core::codec
