// Fuzz target: FrameReader over raw CSMF byte streams.
//
// Properties under test:
//   1. Reassembly fixpoint — feeding the same bytes in fuzzer-chosen chunk
//      sizes must yield the identical frame sequence (and the identical
//      FrameError, if any) as one whole-buffer feed. A reader whose output
//      depends on read boundaries corrupts streams on a real socket. The
//      same holds for a reader read into directly (prepare/commit, as
//      csmd's server does) whose frames are taken as in-place views.
//   2. Re-encode identity — every accepted frame must encode back to
//      exactly the bytes it was decoded from, so the consumed prefix of
//      the input is reproduced bit-for-bit.
//   3. Arbitrary bytes either decode or throw FrameError — nothing else
//      (no crashes, no unbounded allocation from unvalidated lengths).
#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.hpp"
#include "net/frame.hpp"

namespace {

struct ParseResult {
  std::vector<csm::net::Frame> frames;
  std::optional<std::string> error;
  std::uint64_t consumed = 0;
};

ParseResult parse(csm::net::FrameReader& reader,
                  std::span<const std::uint8_t> bytes,
                  std::size_t chunk_seed) {
  ParseResult result;
  std::size_t at = 0;
  std::uint64_t state = chunk_seed * 2654435761u + 1;
  try {
    while (at < bytes.size()) {
      // Chunk sizes follow a cheap deterministic generator seeded by the
      // input, so the fuzzer explores many boundary placements.
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t chunk =
          chunk_seed == 0 ? bytes.size() : 1 + (state >> 33) % 9;
      const std::size_t take = std::min(chunk, bytes.size() - at);
      reader.feed(bytes.subspan(at, take));
      at += take;
      while (std::optional<csm::net::Frame> frame = reader.next()) {
        result.frames.push_back(*std::move(frame));
      }
    }
  } catch (const csm::net::FrameError& e) {
    result.error = e.what();
  }
  result.consumed = reader.stream_offset();
  return result;
}

// The server's path: each read lands straight in the reader's buffer
// (prepare, then commit of a possibly shorter count), and frames are copied
// out of next_view().
ParseResult parse_in_place(csm::net::FrameReader& reader,
                           std::span<const std::uint8_t> bytes,
                           std::size_t read_seed) {
  ParseResult result;
  std::size_t at = 0;
  std::uint64_t state = read_seed * 0x9E3779B97F4A7C15ULL + 7;
  try {
    while (at < bytes.size()) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t room = 1 + (state >> 33) % 97;
      const std::size_t got =
          std::min({room - (state >> 20) % room, bytes.size() - at});
      const std::span<std::uint8_t> into = reader.prepare(room);
      std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(at), got,
                  into.begin());
      reader.commit(got);
      at += got;
      while (std::optional<csm::net::FrameView> view = reader.next_view()) {
        result.frames.push_back(
            {view->type, std::string(view->node),
             {view->payload.begin(), view->payload.end()}});
      }
    }
  } catch (const csm::net::FrameError& e) {
    result.error = e.what();
  }
  result.consumed = reader.stream_offset();
  return result;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes{data, size};

  csm::net::FrameReader one_shot;
  const ParseResult whole = parse(one_shot, bytes, 0);

  csm::net::FrameReader trickled;
  const ParseResult chunked =
      parse(trickled, bytes, size == 0 ? 1 : 1 + data[0]);

  csm::fuzz::require(whole.frames == chunked.frames,
                     "chunked feed decoded a different frame sequence");
  csm::fuzz::require(whole.error.has_value() == chunked.error.has_value(),
                     "chunked feed diverged on accept/reject");
  if (whole.error && chunked.error) {
    csm::fuzz::require(*whole.error == *chunked.error,
                       "chunked feed reported a different FrameError");
  }
  csm::fuzz::require(whole.consumed == chunked.consumed,
                     "chunked feed consumed a different byte count");

  csm::net::FrameReader direct;
  const ParseResult in_place =
      parse_in_place(direct, bytes, size == 0 ? 1 : 1 + data[size - 1]);
  csm::fuzz::require(whole.frames == in_place.frames,
                     "prepare/commit reads decoded a different frame sequence");
  csm::fuzz::require(whole.error == in_place.error,
                     "prepare/commit reads reported a different FrameError");
  csm::fuzz::require(whole.consumed == in_place.consumed,
                     "prepare/commit reads consumed a different byte count");

  // Accepted frames must re-encode to exactly the consumed input prefix.
  std::vector<std::uint8_t> reencoded;
  for (const csm::net::Frame& frame : whole.frames) {
    const std::vector<std::uint8_t> wire = csm::net::encode_frame(frame);
    reencoded.insert(reencoded.end(), wire.begin(), wire.end());
  }
  csm::fuzz::require(reencoded.size() == whole.consumed,
                     "re-encoded frames do not span the consumed prefix");
  csm::fuzz::require(
      std::equal(reencoded.begin(), reencoded.end(), bytes.begin()),
      "re-encoded frames differ from the bytes they were decoded from");
  return 0;
}
