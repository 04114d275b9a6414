// Test helper: wraps a trained CsModel as the SignatureMethod a MethodStream
// or a StreamEngine node drives, so a CS stream is built the same way as a
// stream of any other method.
#pragma once

#include <memory>
#include <utility>

#include "core/cs_model.hpp"
#include "core/pipeline.hpp"
#include "core/signature_method.hpp"

namespace csm::test_util {

inline std::shared_ptr<const core::SignatureMethod> cs_method(
    core::CsModel model, core::CsOptions options) {
  return std::make_shared<const core::CsSignatureMethod>(
      std::make_shared<const core::CsPipeline>(std::move(model), options));
}

}  // namespace csm::test_util
