#include "src/controller/controller.hpp"

#include <limits>

#include "src/util/expect.hpp"
#include "src/util/log.hpp"

namespace xlf::controller {

MemoryController::MemoryController(const ControllerConfig& config,
                                   nand::NandDevice& device,
                                   const hv::HvConfig& hv_config)
    : config_(config),
      device_(&device),
      ocp_(config.ocp),
      buffer_(config.page_buffer),
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
  registers_.set_ecc_capability(ecc_.correction_capability());
  registers_.set_program_algorithm(device.program_algorithm());
}

void MemoryController::set_correction_capability(unsigned t) {
  ecc_.set_correction_capability(t);
  registers_.set_ecc_capability(t);
}

unsigned MemoryController::correction_capability() const {
  return ecc_.correction_capability();
}

void MemoryController::set_program_algorithm(nand::ProgramAlgorithm algo) {
  device_->select_program_algorithm(algo);
  registers_.set_program_algorithm(algo);
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
  if (!device_->config().data_plane) return write_page_meta(addr, data);
  XLF_EXPECT(data.size() == config_.ecc_hw.code.k);
  WriteResult result;
  registers_.set_busy(true);

  // Host burst across the OCP socket into the page buffer. This is
  // the channel-contended share of the write in a multi-die SSD.
  const OcpRequest request{OcpCommand::kWrite, 0,
                           static_cast<std::uint32_t>(data.size() / 8)};
  ocp_.record(request);
  result.io_latency = ocp_.transfer_time(request) + buffer_.load(data);
  result.latency += result.io_latency;

  // ECC encode.
  const EncodeOutcome encoded = ecc_.encode(buffer_.unload());
  result.latency += encoded.latency;
  result.ecc_energy += encoded.energy;
  result.t_used = ecc_.correction_capability();

  // Pad the codeword to the physical page and program.
  BitVec page_bits(device_->geometry().bits_per_page());
  page_bits.insert(0, encoded.codeword);
  const double wear = device_->wear(addr.block);
  const nand::ProgramOutcome programmed =
      device_->program_page(addr, page_bits, config_.load_strategy);
  result.ok = programmed.ok;
  result.latency += programmed.busy_time;
  result.nand_energy += nand_power_.program_energy(program_algorithm(), wear);
  device_->write_ecc_t(addr, static_cast<std::uint8_t>(result.t_used));

  registers_.set_busy(false);
  registers_.set_error(!result.ok);
  return result;
}

WriteResult MemoryController::write_page_meta(nand::PageAddress addr,
                                              const BitVec& data) {
  // Metadata-only pipeline: the same stage arithmetic as the bit-true
  // path — OCP burst + buffer stream, model encode, statistical-mode
  // program time — with no payload bits moved (callers pass empty or
  // full-size data; only its modeled size matters).
  XLF_EXPECT(data.size() == config_.ecc_hw.code.k || data.size() == 0);
  const std::size_t k = config_.ecc_hw.code.k;
  WriteResult result;
  registers_.set_busy(true);

  const OcpRequest request{OcpCommand::kWrite, 0,
                           static_cast<std::uint32_t>(k / 8)};
  ocp_.record(request);
  result.io_latency = ocp_.transfer_time(request) + buffer_.stream_time(k);
  result.latency += result.io_latency;

  result.latency += ecc_.latency_model().encode_latency();
  result.ecc_energy +=
      ecc_.power_model().encode_energy(ecc_.correction_capability());
  result.t_used = ecc_.correction_capability();

  const double wear = device_->wear(addr.block);
  const nand::ProgramOutcome programmed =
      device_->program_page(addr, BitVec(0), config_.load_strategy);
  result.ok = programmed.ok;
  result.latency += programmed.busy_time;
  result.nand_energy += nand_power_.program_energy(program_algorithm(), wear);
  device_->write_ecc_t(addr, static_cast<std::uint8_t>(result.t_used));

  registers_.set_busy(false);
  registers_.set_error(!result.ok);
  return result;
}

ReadResult MemoryController::read_page(nand::PageAddress addr) {
  const unsigned page_t = device_->ecc_t(addr);
  XLF_EXPECT(page_t != 0 && "reading an unwritten page");
  if (!device_->config().data_plane) return read_page_meta(page_t);

  ReadResult result;
  registers_.set_busy(true);

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
  registers_.record_decode(decoded.result.corrected, result.uncorrectable);

  // Host burst out — the channel-contended share of the read.
  const OcpRequest request{OcpCommand::kRead, 0,
                           static_cast<std::uint32_t>(result.data.size() / 8)};
  ocp_.record(request);
  result.io_latency = ocp_.transfer_time(request);
  result.latency += result.io_latency;

  registers_.set_busy(false);
  registers_.set_error(!result.ok);
  return result;
}

ReadResult MemoryController::read_page_meta(unsigned t) {
  // Metadata-only read service: sensing time + the worst-case decode
  // at the page's written t (the paper's throughput convention) and a
  // clean-decode outcome — no cells exist to produce errors, so the
  // reliability feedback sees a clean decode. No payload moves: `data`
  // stays empty and the OCP burst is sized from the page's k bits.
  ReadResult result;
  registers_.set_busy(true);

  result.latency += device_->timing().read_time();
  result.nand_energy += nand_power_.read_energy();

  const bch::CodeFamily& code = config_.ecc_hw.code;
  result.latency += ecc_.latency_model().decode_latency(t);
  result.ecc_energy += ecc_.power_model().decode_energy(t, 0.0);

  reliability_.observe_decode(0, code.at(t).n());
  registers_.record_decode(0, false);

  const OcpRequest request{OcpCommand::kRead, 0,
                           static_cast<std::uint32_t>(code.k / 8)};
  ocp_.record(request);
  result.io_latency = ocp_.transfer_time(request);
  result.latency += result.io_latency;

  registers_.set_busy(false);
  registers_.set_error(false);
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
