#include "cnet/sim/vtime.hpp"

#include "cnet/core/counting.hpp"

namespace cnet::sim::vtime {

namespace {

std::unique_ptr<CounterModel> make_backend_model(svc::BackendKind kind,
                                                 Engine& eng,
                                                 const ModelConfig& cfg,
                                                 util::Xoshiro256& rng,
                                                 AdaptiveModel** adaptive) {
  const auto draw = [&](double mean) {
    return ServiceDraw(mean, cfg.exponential_service, rng);
  };
  const auto network = [&](std::size_t batch_k) {
    return std::make_unique<NetworkModel>(
        eng, core::make_counting(cfg.width_in, cfg.width_out),
        cfg.wire_delay, batch_k, draw(cfg.balancer_service));
  };
  switch (kind) {
    case svc::BackendKind::kCentralAtomic:
      return std::make_unique<CentralModel>(eng, cfg.central_slope,
                                            draw(cfg.central_service),
                                            /*empty_read_fast_path=*/true);
    case svc::BackendKind::kCentralCas:
      return std::make_unique<CentralModel>(eng, cfg.cas_slope,
                                            draw(cfg.central_service),
                                            /*empty_read_fast_path=*/true);
    case svc::BackendKind::kCentralMutex:
      return std::make_unique<CentralModel>(eng, cfg.mutex_slope,
                                            draw(cfg.mutex_service));
    case svc::BackendKind::kNetwork:
      return network(1);
    case svc::BackendKind::kBatchedNetwork:
      return network(cfg.batch_k);
    case svc::BackendKind::kAdaptive: {
      auto cold = std::make_unique<CentralModel>(eng, cfg.central_slope,
                                                 draw(cfg.central_service),
                                                 /*empty_read_fast_path=*/
                                                 true);
      auto model = std::make_unique<AdaptiveModel>(
          std::move(cold), network(cfg.batch_k), eng, cfg.tuning);
      if (adaptive != nullptr) *adaptive = model.get();
      return model;
    }
  }
  return nullptr;
}

}  // namespace

ModelStack make_model(const svc::BackendSpec& spec, Engine& eng,
                      const ModelConfig& cfg, util::Xoshiro256& rng) {
  ModelStack stack;
  stack.root =
      make_backend_model(spec.kind, eng, cfg, rng, &stack.adaptive);
  CNET_REQUIRE(stack.root != nullptr, "unknown backend kind");
  if (spec.elimination) {
    auto elim = std::make_unique<ElimModel>(
        eng, std::move(stack.root), cfg.elim_slots, cfg.exchange_time,
        cfg.elim_inc_wait, cfg.elim_dec_wait, rng);
    stack.elim = elim.get();
    stack.root = std::move(elim);
  }
  return stack;
}

}  // namespace cnet::sim::vtime
