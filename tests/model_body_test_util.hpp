// Test helpers for the per-method model readers: feed one hand-written field
// body to a registry in both model formats ("csmethod v2" text and a CSMB
// record) and check that each is rejected with an error naming `what`. The
// message check makes a case pin the reader check it was written for, not
// whichever check happens to fail first.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string_view>

#include "core/method_registry.hpp"
#include "core/model_codec.hpp"

namespace csm::test_util {

/// Runs `load` and expects a std::runtime_error whose message contains
/// `what`.
template <typename Load>
void expect_rejected(Load load, std::string_view what) {
  try {
    (void)load();
    ADD_FAILURE() << "accepted; expected an error naming \"" << what << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string_view(e.what()).find(what), std::string_view::npos)
        << e.what();
  }
}

/// Writes the fields with `write` through both codec back-ends and expects
/// the `key` reader to reject the text and the binary form alike.
inline void expect_body_rejected(
    const core::MethodRegistry& registry, std::string_view key,
    const std::function<void(core::codec::Sink&)>& write,
    std::string_view what) {
  core::codec::TextSink text;
  write(text);
  SCOPED_TRACE("text body:\n" + text.body());
  expect_rejected(
      [&] {
        return registry.deserialize(core::codec::text_header(key) +
                                    text.body());
      },
      what);
  core::codec::BinarySink binary;
  write(binary);
  expect_rejected(
      [&] {
        return registry.decode(core::codec::frame_record(key, binary.body()));
      },
      what);
}

}  // namespace csm::test_util
