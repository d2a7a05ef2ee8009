#include "src/sim/host_workload.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/expect.hpp"

namespace xlf::sim {
namespace {

// Exponential inter-arrival with the given mean (Poisson stream);
// zero mean short-circuits to back-to-back arrivals without drawing,
// so the pressure case stays on the same random stream as paced runs.
Seconds draw_gap(Seconds mean, Rng& rng) {
  if (mean.value() <= 0.0) return Seconds{0.0};
  return Seconds{-mean.value() * std::log(1.0 - rng.uniform())};
}

void check_tenant(const TenantSpec& tenant) {
  XLF_EXPECT(tenant.hot_fraction > 0.0 && tenant.hot_fraction <= 1.0);
  XLF_EXPECT(tenant.hot_write_fraction >= 0.0 &&
             tenant.hot_write_fraction <= 1.0);
  XLF_EXPECT(tenant.read_fraction >= 0.0 && tenant.read_fraction < 1.0);
  XLF_EXPECT(tenant.trim_fraction >= 0.0 && tenant.trim_fraction < 1.0);
}

// One tenant's command stream, drawn on demand: per command a gap, a
// read-or-not draw, then a target, from the Rng the caller passes. The
// trim draw is gated on trim_fraction > 0, so a trim-free tenant
// consumes no draw for it and keeps the single-stream rows' bytes.
class TenantStream {
 public:
  TenantStream(const TenantSpec& tenant, std::uint32_t logical_pages,
               std::uint16_t queue)
      : tenant_(&tenant),
        logical_pages_(logical_pages),
        hot_pages_(static_cast<std::uint32_t>(std::max(
            1.0, static_cast<double>(logical_pages) * tenant.hot_fraction))),
        queue_(queue) {
    XLF_EXPECT(logical_pages >= 2);
  }

  // Inlined into both of generate()'s loops: a call would take the
  // address of the single tenant's local Rng, and its state would live
  // in memory instead of registers.
  [[gnu::always_inline]] host::Command next(Rng& rng) {
    const TenantSpec& tenant = *tenant_;
    host::Command command;
    command.queue = queue_;
    command.tenant = queue_;
    command.gap = draw_gap(tenant.mean_gap, rng);
    if (!written_.empty() && rng.chance(tenant.read_fraction)) {
      command.type = host::CmdType::kRead;
      command.lba = written_[rng.below(written_.size())];
    } else if (tenant.trim_fraction > 0.0 && !written_.empty() &&
               rng.chance(tenant.trim_fraction)) {
      // Deallocate a live LPA; swap-pop keeps the written set compact
      // so trimmed pages stop attracting reads and re-trims.
      command.type = host::CmdType::kTrim;
      const std::size_t victim = rng.below(written_.size());
      command.lba = written_[victim];
      written_[victim] = written_.back();
      written_.pop_back();
    } else {
      command.type = host::CmdType::kWrite;
      // An all-hot LPA space (hot_fraction 1.0) has no cold range, so
      // such a write stays hot — after the same draw, which keeps
      // every other input's stream.
      const bool hot = rng.chance(tenant.hot_write_fraction);
      if (hot || hot_pages_ == logical_pages_) {
        // Hot set: the low end of the LPA space.
        command.lba = static_cast<ftl::Lpa>(rng.below(hot_pages_));
      } else {
        command.lba = static_cast<ftl::Lpa>(
            hot_pages_ + rng.below(logical_pages_ - hot_pages_));
      }
      written_.push_back(command.lba);
    }
    return command;
  }

 private:
  const TenantSpec* tenant_;
  std::uint32_t logical_pages_;
  std::uint32_t hot_pages_;
  std::uint16_t queue_;
  std::vector<ftl::Lpa> written_;
};

}  // namespace

MultiTenantWorkload::MultiTenantWorkload(std::vector<TenantSpec> tenants)
    : tenants_(std::move(tenants)) {
  XLF_EXPECT(!tenants_.empty());
  XLF_EXPECT_MSG(tenants_.size() <= host::kMaxQueues,
                 "tenants=" + std::to_string(tenants_.size()) +
                     " exceeds the limit of " +
                     std::to_string(host::kMaxQueues) +
                     " (tenant ids are 16-bit)");
  for (const TenantSpec& tenant : tenants_) check_tenant(tenant);
}

std::vector<host::Command> MultiTenantWorkload::generate(
    std::uint32_t logical_pages, std::size_t count, Rng& rng) const {
  std::vector<host::Command> out;
  out.reserve(count);
  // Single tenant: consume the caller's stream directly — no fork, no
  // merge (the merge's absolute-time round trip would perturb gap
  // bits).
  if (tenants_.size() == 1) {
    TenantStream tenant(tenants_[0], logical_pages, 0);
    // A local copy of the stream, which the stores below cannot reach,
    // so its state stays in registers; written back at the end.
    Rng stream = rng;
    for (std::size_t i = 0; i < count; ++i) out.push_back(tenant.next(stream));
    rng = stream;
    return out;
  }

  // Per-tenant streams from serially pre-forked Rngs: adding a tenant
  // never reshuffles another tenant's draws.
  struct Tenant {
    TenantStream stream;
    Rng rng;
    std::size_t left;  // commands still to draw
  };
  std::vector<Tenant> tenants;
  tenants.reserve(tenants_.size());
  const std::size_t per_tenant = count / tenants_.size();
  const std::size_t remainder = count % tenants_.size();
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    tenants.push_back(
        Tenant{TenantStream(tenants_[t], logical_pages,
                            static_cast<std::uint16_t>(t)),
               rng.fork(), per_tenant + (t < remainder ? 1 : 0)});
  }

  // The merge: a heap holding each tenant's next command, earliest
  // arrival first and ties to the lower tenant. A tenant's arrivals
  // never decrease, so the heap emits exactly the order of a sort of
  // every command by (arrival, tenant, sequence), and each tenant's
  // next command is drawn only when its head leaves.
  struct Head {
    double arrival;  // absolute: the tenant's gaps summed from 0
    std::uint16_t tenant;
    host::Command command;
  };
  const auto later = [](const Head& a, const Head& b) {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.tenant > b.tenant;
  };
  std::vector<Head> heads;
  heads.reserve(tenants.size());
  const auto pull = [&](std::uint16_t t, double arrival) {
    Tenant& tenant = tenants[t];
    if (tenant.left == 0) return;
    --tenant.left;
    const host::Command command = tenant.stream.next(tenant.rng);
    heads.push_back(Head{arrival + command.gap.value(), t, command});
    std::push_heap(heads.begin(), heads.end(), later);
  };
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    pull(static_cast<std::uint16_t>(t), 0.0);
  }

  // Back to inter-arrival gaps of the merged open-loop stream.
  double previous = 0.0;
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head head = heads.back();
    heads.pop_back();
    head.command.gap = Seconds{head.arrival - previous};
    previous = head.arrival;
    out.push_back(head.command);
    pull(head.tenant, head.arrival);
  }
  return out;
}

std::string AccessPattern::label() const {
  // Indexed by Pattern, in declaration order.
  static constexpr const char* kLabels[] = {
      "sequential-read", "random-read", "write-burst", "mixed-r",
      "multimedia-streaming"};
  std::string label = kLabels[static_cast<int>(kind)];
  if (kind == Pattern::kMixed) {
    label += std::to_string(static_cast<int>(read_fraction * 100));
  }
  return label;
}

std::vector<host::Command> generate_pattern(const AccessPattern& pattern,
                                            std::uint32_t logical_pages,
                                            std::size_t count, Rng& rng) {
  XLF_EXPECT(logical_pages >= 1);
  XLF_EXPECT(pattern.read_fraction >= 0.0 && pattern.read_fraction <= 1.0);
  XLF_EXPECT(pattern.bitrate.value() > 0.0);
  const Seconds period{4096.0 / pattern.bitrate.value()};
  const auto sequential = [&](std::size_t n) {
    return static_cast<ftl::Lpa>(n % logical_pages);
  };
  const auto uniform = [&] {
    return static_cast<ftl::Lpa>(rng.below(logical_pages));
  };
  std::vector<host::Command> out(count);
  std::size_t write_cursor = 0;
  for (std::size_t i = 0; i < count; ++i) {
    host::Command& command = out[i];
    switch (pattern.kind) {
      case Pattern::kSequentialRead:
        command.lba = sequential(i);
        break;
      case Pattern::kRandomRead:
        command.lba = uniform();
        break;
      case Pattern::kWriteBurst:
        command.type = host::CmdType::kWrite;
        command.lba = sequential(i);
        break;
      case Pattern::kMixed:
        if (rng.chance(pattern.read_fraction)) {
          command.lba = uniform();
        } else {
          command.type = host::CmdType::kWrite;
          command.lba = sequential(write_cursor++);
        }
        break;
      case Pattern::kStreaming:
        command.lba = sequential(i);
        command.gap = period;
        break;
    }
  }
  return out;
}

}  // namespace xlf::sim
