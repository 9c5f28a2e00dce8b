#include "telemetry/sampler.hpp"

#include <utility>

namespace optsync::telemetry {

Sampler::Sampler(SamplerConfig cfg) : cfg_(cfg), set_(cfg.capacity) {
  if (cfg_.interval_ns == 0) cfg_.interval_ns = 50'000;
}

void Sampler::add_gauge(std::string name, Labels labels,
                        std::function<double()> fn) {
  Probe p;
  p.idx = set_.series(std::move(name), std::move(labels));
  p.fn = std::move(fn);
  probes_.push_back(std::move(p));
}

void Sampler::add_rate(std::string name, Labels labels,
                       std::function<double()> counter) {
  Probe p;
  p.idx = set_.series(std::move(name), std::move(labels));
  p.fn = std::move(counter);
  p.rate = true;
  probes_.push_back(std::move(p));
}

void Sampler::start(sim::Scheduler& sched) {
  sched_ = &sched;
  pending_ = sched.after_housekeeping(cfg_.interval_ns, [this] { tick(); });
}

void Sampler::stop() {
  if (sched_ != nullptr && pending_ != 0) {
    sched_->cancel_housekeeping(pending_);
    pending_ = 0;
  }
}

void Sampler::sample_now(sim::Time now) {
  ++ticks_;
  for (Probe& p : probes_) {
    const double raw = p.fn();
    double v = raw;
    if (p.rate) {
      const sim::Duration dt = now - p.prev_t;
      // Zero-length windows and the priming tick record 0, never inf.
      v = (p.primed && dt > 0)
              ? (raw - p.prev) / (static_cast<double>(dt) / 1e9)
              : 0.0;
      p.prev = raw;
      p.prev_t = now;
      p.primed = true;
    }
    set_.append(p.idx, now, v);
  }
}

void Sampler::tick() {
  pending_ = 0;
  sample_now(sched_->now());
  // Re-arm only while the simulation is still doing real work; the run
  // must drain, and another housekeeping loop (the elastic controller,
  // say) must not read as work or the two keep each other alive forever.
  if (sched_->busy()) {
    pending_ = sched_->after_housekeeping(cfg_.interval_ns, [this] { tick(); });
  }
}

}  // namespace optsync::telemetry
