// Out-of-band (spare-area) metadata model for crash consistency.
//
// Real NAND pages carry a spare area programmed in the same operation
// as the data (Geometry::spare_bytes_per_page already budgets it for
// ECC parity *and* metadata). The FTL uses a few of those bytes for a
// per-page record that makes its DRAM state reconstructible after
// power loss: which LPA the page holds, a device-wide monotonic
// sequence number (the replay order), and enough of the write-time
// context (stream, logical clock) to restore the allocator frontiers.
// The per-block operating point comes from the t byte the controller
// writes beside it (NandDevice::ecc_t).
//
// The device stores the record opaquely — it defines no semantics for
// the fields, it only guarantees the record is durable iff the page's
// program completed through the OOB step (a program killed between
// data and OOB leaves a "torn" page: programmed cells, no record —
// the two-step programming vulnerability the recovery path must treat
// as never written).
//
// Alongside the per-page records the device keeps a small durable
// per-block table (erase count + grown-bad flag) standing in for the
// metadata a real controller keeps in a reserved system block.
#pragma once

#include <cstdint>

namespace xlf::nand {

// The FTL's spare-area record format. Written atomically with the
// page's data; erased with the block.
struct OobRecord {
  // Logical page this physical page holds (host view).
  std::uint32_t lba = 0;
  // Device-wide monotonic program/trim sequence number. Replaying all
  // surviving records in increasing seq order reproduces the L2P map:
  // for every LBA the highest surviving seq wins.
  std::uint64_t seq = 0;
  // Which write frontier programmed the page: 0 = host stream,
  // 1 = GC/relocation stream. Mount uses it to reopen a partially
  // written block on the right frontier.
  std::uint8_t stream = 0;
  // FTL logical clock at program time (the cost-benefit age signal) —
  // restores DieAllocator::last_write_ on rebuild.
  std::uint64_t stamp = 0;

  friend bool operator==(const OobRecord&, const OobRecord&) = default;
};

}  // namespace xlf::nand
