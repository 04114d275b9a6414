#include "core/signature_method.hpp"

#include "common/ring_matrix.hpp"
#include "core/model_codec.hpp"

namespace csm::core {

namespace {

class WindowEmitter final : public StreamEmitter {
 public:
  WindowEmitter(const SignatureMethod& method, std::size_t window_length)
      : method_(method), wl_(window_length) {}

  std::vector<double> emit(const common::RingMatrix& history) override {
    const common::MatrixView window = history.latest_view(wl_);
    if (history.size() > wl_) {
      const std::span<const double> seed = history.newest(wl_);
      return method_.compute_streaming(window, &seed);
    }
    return method_.compute_streaming(window, nullptr);
  }

 private:
  const SignatureMethod& method_;
  std::size_t wl_;
};

}  // namespace

std::unique_ptr<StreamEmitter> SignatureMethod::make_stream_emitter(
    std::size_t window_length) const {
  return std::make_unique<WindowEmitter>(*this, window_length);
}

void SignatureMethod::save(codec::Sink& sink) const {
  (void)sink;
  throw std::logic_error(name() + ": serialization is not supported");
}

}  // namespace csm::core
