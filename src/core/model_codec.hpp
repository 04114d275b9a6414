// Model codec: one write path per method, two wire formats.
//
// SignatureMethod::save(Sink&) describes a trained model as a sequence of
// named, typed fields; the codec supplies two interchangeable back-ends:
//
//   * text  — the tagged "csmethod v2 <key>" format: one readable line per
//     field (`name value` for scalars, `name count values...` for arrays),
//     doubles printed with %.17g so every value round-trips exactly;
//   * binary — a compact record: "CSMB" magic, a format version byte, the
//     method key, a length-prefixed little-endian field body and a trailing
//     CRC32 over the whole record. This is the format core::ModelPack
//     concatenates so a fleet engine can mmap hundreds of thousands of
//     per-node models and deserialise them lazily.
//
// Sources are strict: fields are read back in writing order, and a name or
// type mismatch, a truncated payload, an absurd element count, a CRC
// mismatch or trailing data all throw std::runtime_error naming the
// offending field (and, for binary records, the byte offset).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/wire.hpp"

namespace csm::core {
class SignatureMethod;
}

namespace csm::core::codec {

/// On-disk model flavour selector (see MethodRegistry::load / save_method).
enum class ModelFormat { kText, kBinary };

/// Tagged-text header line shared by the codec and the registry.
inline std::string text_header(std::string_view key) {
  return "csmethod v2 " + std::string(key) + "\n";
}

/// Kept for callers outside src/ that checksum through the codec namespace;
/// the wire primitives live in common/wire.hpp.
using common::wire::crc32;

/// Binary record framing constants.
inline constexpr std::uint8_t kBinaryMagic[4] = {'C', 'S', 'M', 'B'};
inline constexpr std::uint8_t kBinaryVersion = 1;
/// Cap on array element counts: a corrupt count must fail loudly before it
/// turns into a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxFieldElements = 1ull << 26;

// ---------------------------------------------------------------------------
// Field-level write surface
// ---------------------------------------------------------------------------

/// Abstract typed field sink. Methods write their trained state through
/// this interface exactly once; the back-end decides the wire format.
class Sink {
 public:
  virtual ~Sink() = default;

  virtual void u64(std::string_view name, std::uint64_t value) = 0;
  virtual void f64(std::string_view name, double value) = 0;
  virtual void u64_array(std::string_view name,
                         std::span<const std::uint64_t> values) = 0;
  virtual void f64_array(std::string_view name,
                         std::span<const double> values) = 0;

  // Convenience spellings over the virtual core.
  void size(std::string_view name, std::size_t value) { u64(name, value); }
  void flag(std::string_view name, bool value) { u64(name, value ? 1 : 0); }
  /// Writes a std::size_t array as u64s (the two types differ on LLP64/
  /// LP64 platforms even when both are 64 bits wide).
  void sizes(std::string_view name, std::span<const std::size_t> values);
};

/// Abstract typed field source: fields are consumed in the order they were
/// written. All mismatches throw std::runtime_error naming the field.
class Source {
 public:
  virtual ~Source() = default;

  virtual std::uint64_t u64(std::string_view name) = 0;
  virtual double f64(std::string_view name) = 0;
  virtual std::vector<std::uint64_t> u64_array(std::string_view name) = 0;
  virtual std::vector<double> f64_array(std::string_view name) = 0;
  /// Throws std::runtime_error if unread fields or trailing bytes remain.
  virtual void finish() = 0;

  /// u64 checked to fit std::size_t.
  std::size_t size(std::string_view name);
  /// u64 checked to be exactly 0 or 1.
  bool flag(std::string_view name);
  /// u64_array checked element-wise to fit std::size_t.
  std::vector<std::size_t> sizes(std::string_view name);
};

// ---------------------------------------------------------------------------
// Text back-end ("csmethod v2" bodies)
// ---------------------------------------------------------------------------

class TextSink final : public Sink {
 public:
  void u64(std::string_view name, std::uint64_t value) override;
  void f64(std::string_view name, double value) override;
  void u64_array(std::string_view name,
                 std::span<const std::uint64_t> values) override;
  void f64_array(std::string_view name,
                 std::span<const double> values) override;

  /// The accumulated field lines (the body below the header line).
  const std::string& body() const noexcept { return body_; }

 private:
  std::string body_;
};

class TextSource final : public Source {
 public:
  explicit TextSource(std::string_view body) : in_(std::string(body)) {}

  std::uint64_t u64(std::string_view name) override;
  double f64(std::string_view name) override;
  std::vector<std::uint64_t> u64_array(std::string_view name) override;
  std::vector<double> f64_array(std::string_view name) override;
  void finish() override;

 private:
  void expect_name(std::string_view name);
  std::uint64_t parse_u64(std::string_view name);
  double parse_f64(std::string_view name);

  std::istringstream in_;
};

// ---------------------------------------------------------------------------
// Binary back-end (CRC-checked little-endian records)
// ---------------------------------------------------------------------------

class BinarySink final : public Sink {
 public:
  void u64(std::string_view name, std::uint64_t value) override;
  void f64(std::string_view name, double value) override;
  void u64_array(std::string_view name,
                 std::span<const std::uint64_t> values) override;
  void f64_array(std::string_view name,
                 std::span<const double> values) override;

  /// The accumulated field body (without record framing).
  const std::vector<std::uint8_t>& body() const noexcept { return body_; }

 private:
  void field_header(std::uint8_t type, std::string_view name,
                    std::uint64_t count);

  std::vector<std::uint8_t> body_;
};

class BinarySource final : public Source {
 public:
  /// `base_offset` is the body's offset inside the enclosing record, used
  /// to report absolute record offsets in error messages.
  explicit BinarySource(std::span<const std::uint8_t> body,
                        std::size_t base_offset = 0)
      : body_(body), base_offset_(base_offset) {}

  std::uint64_t u64(std::string_view name) override;
  double f64(std::string_view name) override;
  std::vector<std::uint64_t> u64_array(std::string_view name) override;
  std::vector<double> f64_array(std::string_view name) override;
  void finish() override;

 private:
  /// Reads and validates one field header; returns the element count.
  std::uint64_t field_header(std::uint8_t type, std::string_view name);
  std::size_t offset() const noexcept { return base_offset_ + cursor_; }

  std::span<const std::uint8_t> body_;
  std::size_t base_offset_ = 0;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Parsed view into a validated binary record.
struct RecordView {
  std::uint8_t version = 0;
  std::string key;                      ///< Registry key, e.g. "cs".
  std::span<const std::uint8_t> body;   ///< Field body (BinarySource input).
  std::size_t body_offset = 0;          ///< Body offset inside the record.
};

/// True when `bytes` starts with the binary record magic.
bool is_binary_record(std::span<const std::uint8_t> bytes);

/// Frames `body` as one record: magic, version byte, key, length-prefixed
/// body, trailing CRC32 over everything before it.
std::vector<std::uint8_t> frame_record(std::string_view key,
                                       std::span<const std::uint8_t> body);

/// Validates the framing and CRC of `record` (which must be exactly one
/// record, no trailing bytes) and returns a view into it. Throws
/// std::runtime_error naming the defect and offset.
RecordView parse_record(std::span<const std::uint8_t> record);

// ---------------------------------------------------------------------------
// Whole-method encoders (decoding needs a registry: MethodRegistry::
// deserialize for text, MethodRegistry::decode for binary records)
// ---------------------------------------------------------------------------

/// Tagged text form: "csmethod v2 <key>" header plus the field lines of
/// method.save(). Throws std::logic_error when the method is untrained or
/// has no codec key.
std::string encode_text(const SignatureMethod& method);

/// Binary record form of the same fields. Same error contract.
std::vector<std::uint8_t> encode_binary(const SignatureMethod& method);

}  // namespace csm::core::codec
