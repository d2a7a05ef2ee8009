#include <gtest/gtest.h>

#include "src/controller/ocp.hpp"
#include "src/controller/page_buffer.hpp"
#include "src/controller/registers.hpp"

namespace xlf::controller {
namespace {

TEST(Registers, DefaultsMatchPaperBaseline) {
  const RegisterFile regs;
  EXPECT_TRUE(regs.enabled());
  EXPECT_EQ(regs.ecc_capability(), 3u);
  EXPECT_EQ(regs.program_algorithm(), nand::ProgramAlgorithm::kIsppSv);
  EXPECT_FALSE(regs.busy());
}

TEST(Registers, BusAccessRoundTrip) {
  RegisterFile regs;
  regs.write(RegisterId::kEccCapability, 42);
  EXPECT_EQ(regs.read(RegisterId::kEccCapability), 42u);
  regs.write(RegisterId::kProgramAlgo, 1);
  EXPECT_EQ(regs.program_algorithm(), nand::ProgramAlgorithm::kIsppDv);
}

TEST(Registers, ReadOnlyRegistersRejectWrites) {
  RegisterFile regs;
  EXPECT_THROW(regs.write(RegisterId::kStatus, 1), std::invalid_argument);
  EXPECT_THROW(regs.write(RegisterId::kCorrectedBits, 1),
               std::invalid_argument);
  EXPECT_THROW(regs.write(RegisterId::kDecodedPages, 1),
               std::invalid_argument);
}

TEST(Registers, InvalidValuesRejected) {
  RegisterFile regs;
  EXPECT_THROW(regs.write(RegisterId::kEccCapability, 0),
               std::invalid_argument);
  EXPECT_THROW(regs.write(RegisterId::kProgramAlgo, 2),
               std::invalid_argument);
}

TEST(Registers, FeedbackCountersAccumulate) {
  RegisterFile regs;
  regs.record_decode(5, false);
  regs.record_decode(7, false);
  regs.record_decode(0, true);
  EXPECT_EQ(regs.corrected_bits(), 12u);
  EXPECT_EQ(regs.decoded_pages(), 3u);
  EXPECT_EQ(regs.uncorrectable_pages(), 1u);
  regs.clear_counters();
  EXPECT_EQ(regs.corrected_bits(), 0u);
  EXPECT_EQ(regs.decoded_pages(), 0u);
}

TEST(Registers, BusyAndErrorFlags) {
  RegisterFile regs;
  regs.set_busy(true);
  EXPECT_TRUE(regs.busy());
  EXPECT_EQ(regs.read(RegisterId::kStatus) & 1u, 1u);
  regs.set_error(true);
  EXPECT_EQ(regs.read(RegisterId::kStatus) & 2u, 2u);
  regs.set_busy(false);
  EXPECT_FALSE(regs.busy());
  EXPECT_EQ(regs.read(RegisterId::kStatus) & 2u, 2u);  // error sticks
}

TEST(Ocp, ConfigAccessesAreSingleBeat) {
  const OcpSocket socket{OcpConfig{}};
  const Seconds t =
      socket.transfer_time({OcpCommand::kConfigWrite, 0x10, 4});
  // Network latency + one clock.
  EXPECT_NEAR(t.micros(), 0.5 + 0.005, 1e-6);
}

TEST(Ocp, BurstTimeScalesWithSize) {
  const OcpSocket socket{OcpConfig{}};
  const Seconds page =
      socket.transfer_time({OcpCommand::kWrite, 0, 4096});
  // 4096 bytes over a 32-bit socket at 200 MHz: 1024 beats = 5.12 us.
  EXPECT_NEAR(page.micros(), 0.5 + 5.12, 1e-3);
  EXPECT_NEAR(socket.burst_time(8192) / socket.burst_time(4096), 2.0, 1e-9);
}

TEST(Ocp, SocketIsFastAgainstFlash) {
  // Fig. 1 rationale: "the network is typically much faster than the
  // flash device" — a page burst must be well under the 75 us read.
  const OcpSocket socket{OcpConfig{}};
  EXPECT_LT(socket.transfer_time({OcpCommand::kRead, 0, 4096}).micros(),
            20.0);
}

TEST(Ocp, TrafficAccounting) {
  OcpSocket socket{OcpConfig{}};
  socket.record({OcpCommand::kWrite, 0, 4096});
  socket.record({OcpCommand::kConfigRead, 0, 4});
  EXPECT_EQ(socket.requests_served(), 2u);
  EXPECT_EQ(socket.bytes_moved(), 4096u);  // config beats don't count
}

TEST(PageBuffer, HandOffProtocol) {
  PageBuffer buffer{PageBufferConfig{}};
  EXPECT_FALSE(buffer.occupied());
  BitVec data(1024);
  data.set(5, true);
  const Seconds load_time = buffer.load(data);
  EXPECT_GT(load_time.value(), 0.0);
  EXPECT_TRUE(buffer.occupied());
  EXPECT_TRUE(buffer.content().get(5));
  // Double-load violates the single-page hand-off.
  EXPECT_THROW(buffer.load(data), std::invalid_argument);
  const BitVec out = buffer.unload();
  EXPECT_TRUE(out.get(5));
  EXPECT_FALSE(buffer.occupied());
  EXPECT_THROW(buffer.unload(), std::invalid_argument);
}

TEST(PageBuffer, CapacityEnforced) {
  PageBuffer buffer{PageBufferConfig{.capacity_bits = 128,
                                     .bandwidth = BytesPerSecond::mib(100)}};
  EXPECT_THROW(buffer.load(BitVec(256)), std::invalid_argument);
  EXPECT_NO_THROW(buffer.load(BitVec(128)));
}

TEST(PageBuffer, StreamTimeFollowsBandwidth) {
  PageBuffer buffer{PageBufferConfig{}};
  const Seconds one_page = buffer.stream_time(32768);
  // 4 KiB at 800 MiB/s: ~4.9 us.
  EXPECT_NEAR(one_page.micros(), 4096.0 / (800.0 * 1024.0 * 1024.0) * 1e6,
              1e-3);
}

}  // namespace
}  // namespace xlf::controller
