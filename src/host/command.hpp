// The NVMe-style host command set (xlf::host).
//
// This is the boundary real SSD stacks expose: the host describes its
// intent as commands — read, write, trim (deallocate), flush
// (durability barrier) — tagged with the submission queue and tenant
// they belong to, and the device decides when each queue gets to
// issue (src/host/queues.hpp + policy::Arbitration). Commands
// address the FTL's logical page space in (LBA, length) extents; the
// driver expands an extent into per-page FTL operations and completes
// the command when the last page lands.
//
// It is the simulator's only host vocabulary: multi-tenant, QoS and
// trim/retention scenarios need queues and a command set, not a
// single anonymous request stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "src/ftl/mapping.hpp"
#include "src/util/units.hpp"

namespace xlf::host {

enum class CmdType : std::uint8_t { kRead, kWrite, kTrim, kFlush };

inline const char* to_string(CmdType type) {
  switch (type) {
    case CmdType::kRead: return "read";
    case CmdType::kWrite: return "write";
    case CmdType::kTrim: return "trim";
    case CmdType::kFlush: return "flush";
  }
  return "?";
}

// Queue and tenant ids are 16-bit, so a host interface (and a
// multi-tenant workload) holds at most 65,536 of them. Widening the
// ids would grow every Command (24 to 32 bytes on x86-64).
inline constexpr std::size_t kMaxQueues =
    std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1;

// One host command as it enters a submission queue.
struct Command {
  CmdType type = CmdType::kRead;
  // First logical page of the extent; ignored by kFlush.
  ftl::Lpa lba = 0;
  // Extent length in logical pages (>= 1); ignored by kFlush.
  std::uint32_t length = 1;
  // Submission queue this command is enqueued on.
  std::uint16_t queue = 0;
  // Free-form stream tag (multi-tenant workloads stamp the tenant
  // index; 0 for a single tenant).
  std::uint16_t tenant = 0;
  // Inter-arrival time before this command enters its queue, relative
  // to the previous command of the *merged* host stream (the open-loop
  // clock the simulator schedules arrivals on).
  Seconds gap{0.0};
};

// One completion-queue entry: the command echoed back with its
// timing. `ok` is false when any page of the extent decoded
// uncorrectably.
struct Completion {
  CmdType type = CmdType::kRead;
  ftl::Lpa lba = 0;
  std::uint32_t length = 1;
  std::uint16_t queue = 0;
  std::uint16_t tenant = 0;
  Seconds submitted{0.0};
  Seconds completed{0.0};
  bool ok = true;

  Seconds latency() const { return completed - submitted; }
};

}  // namespace xlf::host
