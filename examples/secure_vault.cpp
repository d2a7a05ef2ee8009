// Secure vault (paper Section 6.3.1): mission-critical storage —
// web-payment transactions, OS images, internal backups — wants UBER
// far below the stock 1e-11. The MinUber point switches the physical
// layer to ISPP-DV while keeping the SV-sized ECC: the entire 10x
// RBER margin becomes UBER headroom, with no read-throughput cost.
// The demo also exercises the margin: error bursts beyond what the
// raw device would produce are still corrected transparently.
#include <iostream>

#include "src/bch/error_injection.hpp"
#include "src/core/subsystem.hpp"
#include "src/util/rng.hpp"

using namespace xlf;

int main() {
  core::SubsystemConfig config = core::SubsystemConfig::defaults();
  core::MemorySubsystem subsystem(config);
  subsystem.device().set_uniform_wear(1e5);  // mid-life device

  std::cout << "=== secure vault: UBER minimisation at mid-life ===\n\n";
  for (const core::OperatingPoint& point :
       {core::OperatingPoint::baseline(), core::OperatingPoint::min_uber()}) {
    subsystem.apply(point);
    const core::Metrics m = subsystem.current_metrics();
    std::cout << point.describe() << '\n'
              << "  log10(UBER) = " << m.log10_uber
              << "  read throughput = " << to_string(m.read_throughput)
              << "  (identical decode path)\n";
  }

  // Commit a critical payload under MinUber and stress the margin.
  subsystem.apply(core::OperatingPoint::min_uber());
  Rng rng(7);
  BitVec secret(config.device.array.geometry.data_bits_per_page());
  for (std::size_t i = 0; i < secret.size(); ++i) {
    secret.set(i, rng.chance(0.5));
  }
  const nand::PageAddress addr{0, 3};
  const controller::WriteResult write = subsystem.write_page(addr, secret);
  std::cout << "\ncritical page committed with t=" << write.t_used << '\n';

  const controller::ReadResult read = subsystem.read_page(addr);
  std::cout << "read back: corrected " << read.corrected_bits
            << " device bits, data intact: "
            << (read.data == secret ? "yes" : "NO") << '\n';

  // Show the correction margin directly at the codec level.
  auto& ecc = subsystem.controller().ecc();
  const unsigned t = ecc.correction_capability();
  BitVec message(config.controller.ecc_hw.code.k);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message.set(i, rng.chance(0.5));
  }
  const controller::EncodeOutcome enc = ecc.encode(message);
  BitVec stressed = enc.codeword;
  Rng burst_rng(99);
  bch::inject_burst(stressed, t, burst_rng);  // full-t contiguous burst
  const controller::DecodeOutcome dec = ecc.decode(stressed);
  std::cout << "burst stress at full capability t=" << t << ": "
            << (dec.result.ok() && ecc.extract_message(stressed) == message
                    ? "corrected"
                    : "FAILED")
            << " (latency " << to_string(dec.latency) << ")\n";

  std::cout << "\nMinUber adds ~"
            << (subsystem.framework()
                    .evaluate(core::OperatingPoint::baseline(), 1e5)
                    .log10_uber -
                subsystem.framework()
                    .evaluate(core::OperatingPoint::min_uber(), 1e5)
                    .log10_uber)
            << " orders of magnitude of UBER margin at this age\n";
  return 0;
}
