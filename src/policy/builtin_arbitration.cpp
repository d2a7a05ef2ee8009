// Built-in host-queue arbitration policies:
//  * round-robin — cycle through the queues starting after the one
//    that issued last; every eligible queue gets one issue slot per
//    turn of the wheel (the fairness baseline, and the degenerate
//    single-queue case of the multi-queue host interface);
//  * weighted    — deficit-style weighted sharing: issue from the
//    eligible queue with the smallest issued/weight ratio, so issue
//    opportunities converge to the configured weight proportions and
//    heavy queues drain (and complete) first under contention.
#include <cstddef>
#include <limits>

#include "src/policy/policy.hpp"
#include "src/policy/registry.hpp"

namespace xlf::policy {
namespace {

class RoundRobinArbitration final : public ArbitrationPolicy {
 public:
  // First eligible queue scanning circularly from just past the last
  // issuer (queue 0 before anything has issued).
  std::uint32_t pick(const ArbitrationContext& ctx) const override {
    const std::size_t n = ctx.queue_count;
    const std::size_t start =
        ctx.last_queue >= n ? 0 : (ctx.last_queue + 1) % n;
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t q = (start + step) % n;
      if (ctx.queues[q].eligible) return ctx.queues[q].id;
    }
    // The contract guarantees an eligible queue; reaching here is a
    // host-interface bug.
    return ctx.queues[0].id;
  }
};

class WeightedArbitration final : public ArbitrationPolicy {
 public:
  // The eligible queue furthest behind its weighted issue share goes
  // next; strict < keeps ties on the lowest id.
  std::uint32_t pick(const ArbitrationContext& ctx) const override {
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t pick = ctx.queues[0].id;
    bool found = false;
    for (std::size_t q = 0; q < ctx.queue_count; ++q) {
      const QueueView& view = ctx.queues[q];
      if (!view.eligible) continue;
      const double share = static_cast<double>(view.issued) / view.weight;
      if (!found || share < best) {
        best = share;
        pick = view.id;
        found = true;
      }
    }
    return pick;
  }
};

const Registration<ArbitrationPolicy, RoundRobinArbitration>
    kRoundRobin("round-robin");
const Registration<ArbitrationPolicy, WeightedArbitration>
    kWeighted("weighted");

}  // namespace

namespace detail {
void builtin_arbitration_anchor() {}
}  // namespace detail

}  // namespace xlf::policy
