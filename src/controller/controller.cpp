#include "src/controller/controller.hpp"

#include <limits>

#include "src/util/expect.hpp"
#include "src/util/log.hpp"

namespace xlf::controller {
namespace {

// OCP socket: one-way network traversal (router hops + arbitration).
constexpr Seconds kNetworkLatency = Seconds::micros(0.5);
// OCP socket: a 32-bit data path clocked at 200 MHz.
constexpr unsigned kSocketWidthBits = 32;
constexpr Hertz kSocketClock = Hertz::megahertz(200.0);
// Page buffer: embedded-SRAM streaming bandwidth.
constexpr BytesPerSecond kBufferBandwidth = BytesPerSecond::mib(800.0);

// A page burst across the socket: the network traversal plus one clock
// per socket word.
Seconds socket_burst(std::size_t bytes) {
  return kNetworkLatency +
         kSocketClock.period() *
             (static_cast<double>(bytes) * 8.0 / kSocketWidthBits);
}

// `bits` streamed through the page buffer.
Seconds buffer_stream(std::size_t bits) {
  return Seconds{static_cast<double>(bits) / 8.0 / kBufferBandwidth.value()};
}

}  // namespace

MemoryController::MemoryController(const ControllerConfig& config,
                                   nand::NandDevice& device,
                                   const hv::HvConfig& hv_config)
    : config_(config),
      device_(&device),
      ecc_(config.ecc_hw),
      reliability_(config.reliability, config.ecc_hw.code,
                   config.tuning_policy, device.config().array.aging),
      nand_power_(hv_config, device.timing()) {
  const bch::CodeFamily& code = config.ecc_hw.code;
  // The codeword for t_max must fit the device page.
  XLF_EXPECT(code.at(code.t_max).n() <= device.geometry().bits_per_page());
  XLF_EXPECT(code.k == device.geometry().data_bits_per_page());
  // Per-page t is stored in one spare-area byte.
  XLF_EXPECT(code.t_max <= std::numeric_limits<std::uint8_t>::max());
}

void MemoryController::set_correction_capability(unsigned t) {
  ecc_.set_correction_capability(t);
}

unsigned MemoryController::correction_capability() const {
  return ecc_.correction_capability();
}

void MemoryController::set_program_algorithm(nand::ProgramAlgorithm algo) {
  device_->select_program_algorithm(algo);
}

nand::ProgramAlgorithm MemoryController::program_algorithm() const {
  return device_->program_algorithm();
}

unsigned MemoryController::adapt_ecc(double pe_cycles) {
  const unsigned t = reliability_.recommended_t(
      program_algorithm(), pe_cycles, correction_capability());
  if (t != correction_capability()) {
    log_info() << "reliability manager: t " << correction_capability()
               << " -> " << t << " at " << pe_cycles << " cycles";
    set_correction_capability(t);
  }
  return t;
}

WriteResult MemoryController::write_page(nand::PageAddress addr,
                                         const BitVec& data) {
  const bool bit_true = device_->config().data_plane;
  const std::size_t k = config_.ecc_hw.code.k;
  XLF_EXPECT(data.size() == k || (!bit_true && data.size() == 0));
  WriteResult result;

  // Host burst across the OCP socket into the page buffer. This is
  // the channel-contended share of the write in a multi-die SSD.
  result.io_latency = socket_burst(k / 8) + buffer_stream(k);
  result.latency += result.io_latency;
  result.t_used = ecc_.correction_capability();

  // ECC encode, then program: the codeword padded to the physical
  // page, or no bits on a metadata-only device.
  const double wear = device_->wear(addr.block);
  nand::ProgramOutcome programmed;
  if (bit_true) {
    const EncodeOutcome encoded = ecc_.encode(data);
    result.latency += encoded.latency;
    result.ecc_energy += encoded.energy;
    BitVec page_bits(device_->geometry().bits_per_page());
    page_bits.insert(0, encoded.codeword);
    programmed = device_->program_page(addr, page_bits);
  } else {
    result.latency += ecc_.latency_model().encode_latency();
    result.ecc_energy += ecc_.power_model().encode_energy(result.t_used);
    programmed = device_->program_page(addr, BitVec(0));
  }
  result.ok = programmed.ok;
  result.latency += programmed.busy_time;
  result.nand_energy += nand_power_.program_energy(program_algorithm(), wear);
  device_->write_ecc_t(addr, static_cast<std::uint8_t>(result.t_used));
  return result;
}

ReadResult MemoryController::read_page(nand::PageAddress addr) {
  const unsigned page_t = device_->ecc_t(addr);
  XLF_EXPECT(page_t != 0 && "reading an unwritten page");
  if (!device_->config().data_plane) return read_page_meta(page_t);

  ReadResult result;
  // NAND sensing.
  const nand::ReadOutcome raw = device_->read_page(addr);
  result.latency += raw.busy_time;
  result.nand_energy += nand_power_.read_energy();

  // Decode with the capability the page was written at, against the
  // codeword the array was programmed with.
  const unsigned current_t = ecc_.correction_capability();
  ecc_.set_correction_capability(page_t);
  const bch::CodeParams params = ecc_.current_params();
  BitVec codeword = raw.data.slice(0, params.n());
  const DecodeOutcome decoded = ecc_.decode_with_reference(
      codeword, device_->array().written(addr).slice(0, params.n()));
  result.latency += decoded.latency;
  result.ecc_energy += decoded.energy;
  result.corrected_bits = decoded.result.corrected;
  result.uncorrectable =
      decoded.result.status == bch::DecodeStatus::kUncorrectable;
  result.ok = !result.uncorrectable;
  result.data = ecc_.extract_message(codeword);
  ecc_.set_correction_capability(current_t);

  // Reliability feedback. An uncorrectable page carries no corrected
  // count but is evidence of at least t+1 raw errors — feeding zero
  // would bias the estimator down exactly when the error rate
  // explodes.
  const unsigned observed_errors =
      result.uncorrectable ? page_t + 1 : decoded.result.corrected;
  reliability_.observe_decode(observed_errors, params.n());

  // Host burst out — the channel-contended share of the read.
  result.io_latency = socket_burst(result.data.size() / 8);
  result.latency += result.io_latency;
  return result;
}

ReadResult MemoryController::read_page_meta(unsigned t) {
  // No cells exist to produce errors, so the reliability feedback sees
  // a clean decode; the outbound burst is sized from the page's k bits.
  ReadResult result;
  result.latency += device_->timing().read_time();
  result.nand_energy += nand_power_.read_energy();

  const bch::CodeFamily& code = config_.ecc_hw.code;
  result.latency += ecc_.latency_model().decode_latency(t);
  result.ecc_energy += ecc_.power_model().decode_energy(t, 0.0);
  reliability_.observe_decode(0, code.at(t).n());

  result.io_latency = socket_burst(code.k / 8);
  result.latency += result.io_latency;
  return result;
}

Seconds MemoryController::erase_block(std::uint32_t block) {
  // The erase clears the pages' t bytes with their data.
  return device_->erase_block(block).busy_time;
}

Seconds MemoryController::worst_case_read_latency() const {
  return device_->timing().read_time() +
         ecc_.latency_model().decode_latency(ecc_.correction_capability());
}

Seconds MemoryController::write_latency(double pe_cycles) const {
  return ecc_.latency_model().encode_latency() +
         device_->timing().program_time(program_algorithm(), pe_cycles);
}

}  // namespace xlf::controller
