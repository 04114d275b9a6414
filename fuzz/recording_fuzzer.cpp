// Fuzz target: ReplayReader::open_bytes + full batch iteration.
//
// A CSMR recording is untrusted input the moment it crosses a machine
// boundary (a capture shipped from a production daemon to a dev box, or
// replayed months later against a different build). open_bytes validates
// the header CRC and node table; next() validates batch geometry lazily
// and folds the trailing CRC batch by batch. The contract this harness
// pins: any byte string either decodes cleanly or throws RecordingError —
// never a wild read, never another exception type.
//
// Accepted inputs additionally round-trip: re-recording every decoded
// batch (the column-major view next() hands out, with its decoded
// timestamp) through an in-memory Recorder against the decoded node table
// must reproduce the input byte for byte. CSMR has
// a single canonical form — the reader rejects non-canonical geometry — so
// re-encode identity is the strongest cheap differential available.
#include <cstdint>
#include <optional>
#include <vector>

#include "fuzz/fuzz_util.hpp"
#include "replay/recording.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using csm::replay::RecordedBatch;
  using csm::replay::RecordingError;
  namespace fuzz = csm::fuzz;

  std::vector<std::uint8_t> input(data, data + size);
  csm::replay::Recorder rewrite;
  try {
    csm::replay::ReplayReader reader =
        csm::replay::ReplayReader::open_bytes(input, "<fuzz>");
    for (std::size_t i = 0; i < reader.n_nodes(); ++i) {
      const csm::replay::RecordedNode& node = reader.node(i);
      fuzz::require(rewrite.add_node(node.id, node.n_sensors) == i,
                    "re-encoder assigns different node indices");
    }
    while (std::optional<RecordedBatch> batch = reader.next()) {
      rewrite.record(batch->node, batch->columns, batch->timestamp);
    }
    // verify() must agree with the incremental pass that just succeeded.
    reader.verify();
  } catch (const RecordingError&) {
    return 0;  // Rejected input: the only acceptable failure mode.
  }
  rewrite.finish();
  fuzz::require(rewrite.bytes() == input,
                "accepted CSMR input does not re-encode byte-identically");
  return 0;
}
