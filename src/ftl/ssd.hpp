// The multi-die SSD facade: N channels x M dies of complete per-die
// stacks (NAND device + memory controller + cross-layer framework,
// i.e. one core::MemorySubsystem per die), the channel/die dispatch
// timing model, and the FTL on top. All dies share one NandTiming, so
// each ISPP characterisation runs once per SSD, not once per die.
//
// This is where the paper's trade-off finally runs at system scale:
// GC and wear leveling *create* a P/E spread across physical blocks,
// the FTL feeds every block's own counter to the reliability manager
// at write time, and block_metrics() closes the loop by evaluating
// the cross-layer framework at a block's individual age — the same
// Metrics read-out the device-level sweep produces, now at block
// granularity.
#pragma once

#include <memory>
#include <vector>

#include "src/controller/dispatch.hpp"
#include "src/core/subsystem.hpp"
#include "src/ftl/ftl.hpp"

namespace xlf::ftl {

struct SsdConfig {
  controller::DispatchConfig topology{2, 1};  // channels x dies/channel
  // Per-die stack; every die gets a distinct array noise seed derived
  // from this one.
  core::SubsystemConfig die = core::SubsystemConfig::defaults();
  FtlConfig ftl;
  // Uniform pre-conditioning: every block starts this many P/E cycles
  // into its life (lifetime experiments start mid-life, not at BOL).
  double initial_pe_cycles = 0.0;
  core::OperatingPoint point = core::OperatingPoint::baseline();
};

class Ssd {
 public:
  explicit Ssd(const SsdConfig& config);

  const SsdConfig& config() const { return config_; }
  std::size_t dies() const { return subsystems_.size(); }
  core::MemorySubsystem& die(std::size_t i) { return *subsystems_.at(i); }
  const nand::Geometry& die_geometry() const {
    return subsystems_.front()->device().geometry();
  }
  Ftl& ftl() { return *ftl_; }
  const Ftl& ftl() const { return *ftl_; }
  controller::DieDispatcher& dispatcher() { return *dispatcher_; }
  std::uint32_t logical_pages() const { return ftl_->logical_pages(); }

  // Program both cross-layer knobs on every die.
  void apply(const core::OperatingPoint& point);
  const core::OperatingPoint& active_point() const { return active_point_; }

  // The block's own P/E counter fed through the cross-layer
  // framework: predicted metrics of the active operating point at
  // this block's age.
  core::Metrics block_metrics(std::uint32_t die, std::uint32_t block) const;

  // Attach the fault plane to the FTL (remembered across remounts).
  void set_fault_injector(FaultInjector* injector);
  // Simulated power cycle: the FTL object (all DRAM state) is thrown
  // away and a fresh one is mounted over the surviving NAND + durable
  // metadata via rebuild_from_oob(). Dies, controllers, dispatcher
  // timelines and the durable region carry over.
  void remount();
  const DurableMeta& durable() const { return durable_; }

 private:
  SsdConfig config_;
  std::vector<std::unique_ptr<core::MemorySubsystem>> subsystems_;
  std::unique_ptr<controller::DieDispatcher> dispatcher_;
  // The reserved system block's contents: outlives every Ftl mount.
  DurableMeta durable_;
  std::unique_ptr<Ftl> ftl_;
  core::OperatingPoint active_point_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace xlf::ftl
