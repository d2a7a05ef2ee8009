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

// One tenant's command stream: per command a gap, a read-or-not
// draw, then a target. The trim draw is gated on trim_fraction > 0,
// so a trim-free tenant consumes no draw for it and keeps the
// single-stream rows' bytes.
std::vector<host::Command> tenant_commands(const TenantSpec& tenant,
                                           std::uint32_t logical_pages,
                                           std::size_t count,
                                           std::uint16_t queue, Rng& rng) {
  XLF_EXPECT(logical_pages >= 2);
  const auto hot_pages = static_cast<std::uint32_t>(std::max(
      1.0, static_cast<double>(logical_pages) * tenant.hot_fraction));
  std::vector<host::Command> out;
  out.reserve(count);
  std::vector<ftl::Lpa> written;
  for (std::size_t i = 0; i < count; ++i) {
    host::Command command;
    command.queue = queue;
    command.tenant = queue;
    command.gap = draw_gap(tenant.mean_gap, rng);
    if (!written.empty() && rng.chance(tenant.read_fraction)) {
      command.type = host::CmdType::kRead;
      command.lba = written[rng.below(written.size())];
    } else if (tenant.trim_fraction > 0.0 && !written.empty() &&
               rng.chance(tenant.trim_fraction)) {
      // Deallocate a live LPA; swap-pop keeps the written set compact
      // so trimmed pages stop attracting reads and re-trims.
      command.type = host::CmdType::kTrim;
      const std::size_t victim = rng.below(written.size());
      command.lba = written[victim];
      written[victim] = written.back();
      written.pop_back();
    } else {
      command.type = host::CmdType::kWrite;
      // An all-hot LPA space (hot_fraction 1.0) has no cold range, so
      // such a write stays hot — after the same draw, which keeps
      // every other input's stream.
      const bool hot = rng.chance(tenant.hot_write_fraction);
      if (hot || hot_pages == logical_pages) {
        // Hot set: the low end of the LPA space.
        command.lba = static_cast<ftl::Lpa>(rng.below(hot_pages));
      } else {
        command.lba = static_cast<ftl::Lpa>(
            hot_pages + rng.below(logical_pages - hot_pages));
      }
      written.push_back(command.lba);
    }
    out.push_back(command);
  }
  return out;
}

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
  // Single tenant: consume the caller's stream directly — no fork, no
  // merge (the merge's absolute-time round trip would perturb gap
  // bits).
  if (tenants_.size() == 1) {
    return tenant_commands(tenants_[0], logical_pages, count, 0, rng);
  }

  // Per-tenant streams from serially pre-forked Rngs: adding a tenant
  // never reshuffles another tenant's draws.
  std::vector<Rng> streams;
  streams.reserve(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    streams.push_back(rng.fork());
  }

  const std::size_t per_tenant = count / tenants_.size();
  const std::size_t remainder = count % tenants_.size();

  struct Pending {
    double arrival;
    std::uint16_t tenant;
    std::size_t sequence;
    host::Command command;
  };
  std::vector<Pending> merged;
  merged.reserve(count);
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const std::size_t quota = per_tenant + (t < remainder ? 1 : 0);
    const std::vector<host::Command> stream =
        tenant_commands(tenants_[t], logical_pages, quota,
                        static_cast<std::uint16_t>(t), streams[t]);
    double arrival = 0.0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      arrival += stream[i].gap.value();
      merged.push_back(
          Pending{arrival, static_cast<std::uint16_t>(t), i, stream[i]});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Pending& a, const Pending& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.sequence < b.sequence;
            });

  // Back to inter-arrival gaps of the merged open-loop stream.
  std::vector<host::Command> out;
  out.reserve(merged.size());
  double previous = 0.0;
  for (Pending& p : merged) {
    p.command.gap = Seconds{p.arrival - previous};
    previous = p.arrival;
    out.push_back(p.command);
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
