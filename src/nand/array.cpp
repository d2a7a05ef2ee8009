#include "src/nand/array.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "src/util/expect.hpp"

namespace xlf::nand {
namespace {

// Gaussian draws an erase owes each cell, in stream order: the erased
// threshold (VariabilitySampler::sample_erased), then the onset offset
// and sharpness (VariabilitySampler::sample).
constexpr std::uint64_t kDrawsPerCell = 3;
constexpr std::uint64_t kParamDraws = kDrawsPerCell - 1;

// A cell's page bits 2i (MSB) and 2i+1 (LSB) as the two low bits of a
// word, per level.
std::array<std::uint64_t, 4> level_bit_pairs() {
  std::array<std::uint64_t, 4> pairs{};
  for (Level level : kAllLevels) {
    const Bits2 b = level_to_bits(level);
    pairs[static_cast<std::size_t>(level)] =
        std::uint64_t{b.msb} | std::uint64_t{b.lsb} << 1;
  }
  return pairs;
}

}  // namespace

NandArray::NandArray(const ArrayConfig& config)
    : config_(config),
      variability_(config.variability, config.aging),
      ispp_(config.ispp, config.plan),
      interference_(config.interference),
      rber_(config.plan, config.aging, config.ispp, config.variability,
            config.interference),
      disturb_(config.disturb),
      rng_(config.seed),
      block_wear_(config.geometry.blocks, 0.0),
      erase_wear_(config.geometry.blocks, 0.0),
      pages_(config.geometry.pages()) {
  XLF_EXPECT(config.geometry.blocks >= 1);
  XLF_EXPECT(config.geometry.pages_per_block >= 1);
  for (std::uint32_t b = 0; b < config_.geometry.blocks; ++b) {
    erase_block(b);
    block_wear_[b] = 0.0;  // factory-fresh: the first erase is free
  }
}

void NandArray::check_addr(PageAddress addr) const {
  XLF_EXPECT(addr.block < config_.geometry.blocks);
  XLF_EXPECT(addr.page < config_.geometry.pages_per_block);
}

NandArray::PageState& NandArray::page(PageAddress addr) {
  check_addr(addr);
  return pages_[addr.block * config_.geometry.pages_per_block + addr.page];
}

const NandArray::PageState& NandArray::page(PageAddress addr) const {
  check_addr(addr);
  return pages_[addr.block * config_.geometry.pages_per_block + addr.page];
}

void NandArray::erase_block(std::uint32_t block) {
  XLF_EXPECT(block < config_.geometry.blocks);
  block_wear_[block] += 1.0;
  erase_wear_[block] = block_wear_[block];
  const std::uint64_t draws =
      kDrawsPerCell * config_.geometry.cells_per_page();
  for (std::uint32_t p = 0; p < config_.geometry.pages_per_block; ++p) {
    PageState& state = pages_[block * config_.geometry.pages_per_block + p];
    state.erase_stream = rng_;
    state.materialised = false;
    state.programmed = false;
    rng_.discard_gaussians(draws);
  }
}

std::vector<Volts>& NandArray::storage(PageState& state) {
  state.vth.resize(config_.geometry.cells_per_page());  // xlf-lint: allow(hot-alloc)
  return state.vth;
}

std::vector<Volts> NandArray::erased_vth(const PageState& state) const {
  std::vector<Volts> vth(config_.geometry.cells_per_page());
  Rng stream = state.erase_stream;
  for (Volts& v : vth) {
    v = variability_.sample_erased(stream, config_.plan.erased_mean,
                                   config_.plan.erased_sigma);
    stream.discard_gaussians(kParamDraws);
  }
  return vth;
}

double NandArray::wear(std::uint32_t block) const {
  XLF_EXPECT(block < config_.geometry.blocks);
  return block_wear_[block];
}

void NandArray::set_wear(std::uint32_t block, double pe_cycles) {
  XLF_EXPECT(block < config_.geometry.blocks);
  XLF_EXPECT(pe_cycles >= 0.0);
  block_wear_[block] = pe_cycles;
}

bool NandArray::is_erased(PageAddress addr) const {
  return !page(addr).programmed;
}

std::vector<Level> NandArray::bits_to_levels(const BitVec& bits) {
  XLF_EXPECT(bits.size() % 2 == 0);
  // Level of each bit pair, indexed MSB | LSB << 1.
  std::array<Level, 4> level_of{};
  for (unsigned pair = 0; pair < 4; ++pair) {
    level_of[pair] = bits_to_level(Bits2{(pair & 1u) != 0, (pair & 2u) != 0});
  }
  std::vector<Level> levels(bits.size() / 2);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    levels[i] = level_of[(bits.word(i / 32) >> (2 * (i % 32))) & 3u];
  }
  return levels;
}

BitVec NandArray::levels_to_bits(const std::vector<Level>& levels) {
  BitVec bits(levels.size() * 2);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const Bits2 b = level_to_bits(levels[i]);
    bits.set(2 * i, b.msb);
    bits.set(2 * i + 1, b.lsb);
  }
  return bits;
}

ProgramResult NandArray::program_page(PageAddress addr, const BitVec& bits,
                                      ProgramAlgorithm algo,
                                      ProgramMode mode) {
  PageState& state = page(addr);
  XLF_EXPECT(!state.programmed);  // NAND constraint: program-after-erase
  XLF_EXPECT(bits.size() == config_.geometry.bits_per_page());
  const auto targets = bits_to_levels(bits);
  const double pe = block_wear_[addr.block];

  ProgramResult result;
  if (mode == ProgramMode::kIsppSimulation) {
    result.trace =
        program_ispp(state, targets, algo, pe, erase_wear_[addr.block]);
    result.ok = result.trace->converged;
  } else {
    program_statistical(state, targets, algo, pe);
  }
  state.materialised = true;
  state.programmed = true;

  for (Volts vth : state.vth) {
    if (config_.plan.is_over_programmed(vth)) ++result.over_programmed_cells;
  }
  return result;
}

void NandArray::program_statistical(PageState& state,
                                    std::span<const Level> targets,
                                    ProgramAlgorithm algo, double pe) {
  // Sample each programmed cell from the calibrated read-time
  // distribution of its level. Erased cells stay put, so only they
  // need their erased threshold: the replay computes those and skips
  // every other cell's draws.
  const bool replay = !state.materialised;
  std::vector<Volts>& vth = storage(state);
  Rng stream = state.erase_stream;
  std::uint64_t skipped = 0;  // erase-stream draws not yet discarded
  std::array<std::optional<LevelDistribution>, 4> dist;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == Level::kL0) {
      if (replay) {
        stream.discard_gaussians(skipped);
        vth[i] = variability_.sample_erased(stream, config_.plan.erased_mean,
                                            config_.plan.erased_sigma);
        skipped = kParamDraws;
      }
      continue;
    }
    skipped += kDrawsPerCell;
    std::optional<LevelDistribution>& level =
        dist[static_cast<std::size_t>(targets[i])];
    if (!level) level = rber_.distribution(targets[i], algo, pe);
    vth[i] = Volts{rng_.gaussian(level->mean.value(), level->sigma.value())};
  }
}

IsppTrace NandArray::program_ispp(PageState& state,
                                  std::span<const Level> targets,
                                  ProgramAlgorithm algo, double pe,
                                  double erase_wear) {
  // Rebuild the page's cells: the stored thresholds (or the erased
  // ones), with the parameters the erase drew at its wear.
  std::vector<FloatingGateCell> cells(targets.size());
  Rng stream = state.erase_stream;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Volts erased = variability_.sample_erased(
        stream, config_.plan.erased_mean, config_.plan.erased_sigma);
    cells[i] = FloatingGateCell(state.materialised ? state.vth[i] : erased,
                                variability_.sample(stream, erase_wear));
  }
  std::vector<Volts> before(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) before[i] = cells[i].vth();

  IsppTrace trace = ispp_.program(cells, targets, algo, rng_,
                                  config_.aging.dv_zone_multiplier(pe));

  // Wear-induced spread on top of the verify-clamped placement: the
  // aggregate of trap-assisted shifts, early retention and disturb
  // that the RBER calibration attributes to read time.
  const double wear_spread = rber_.wear_sigma(algo, pe).value();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (targets[i] != Level::kL0) {
      cells[i].shift(Volts{rng_.gaussian(0.0, wear_spread)});
    }
  }

  // Within-page parasitic coupling from the programming displacement.
  std::vector<Volts> deltas(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    deltas[i] = cells[i].vth() - before[i];
  }
  interference_.apply_within_page(cells, deltas);

  std::vector<Volts>& vth = storage(state);
  for (std::size_t i = 0; i < cells.size(); ++i) vth[i] = cells[i].vth();
  return trace;
}

BitVec NandArray::read_page(PageAddress addr) const {
  const PageState& state = page(addr);
  const std::vector<Volts> replayed =
      state.materialised ? std::vector<Volts>() : erased_vth(state);
  const std::vector<Volts>& vth = state.materialised ? state.vth : replayed;
  // 32 cells per 64-bit word.
  const std::array<std::uint64_t, 4> pairs = level_bit_pairs();
  BitVec bits(config_.geometry.bits_per_page());
  for (std::size_t first = 0; first < vth.size(); first += 32) {
    const std::size_t last = std::min(vth.size(), first + 32);
    std::uint64_t word = 0;
    for (std::size_t i = first; i < last; ++i) {
      const Level level = config_.plan.read_level(vth[i]);
      word |= pairs[static_cast<std::size_t>(level)] << (2 * (i - first));
    }
    bits.set_word(first / 32, word);
  }
  return bits;
}

std::vector<Level> NandArray::read_levels(PageAddress addr) const {
  const std::vector<Volts> vth = thresholds(addr);
  std::vector<Level> levels(vth.size());
  for (std::size_t i = 0; i < vth.size(); ++i) {
    levels[i] = config_.plan.read_level(vth[i]);
  }
  return levels;
}

std::vector<Volts> NandArray::thresholds(PageAddress addr) const {
  const PageState& state = page(addr);
  return state.materialised ? state.vth : erased_vth(state);
}

void NandArray::apply_retention(PageAddress addr, double hours) {
  PageState& state = page(addr);
  XLF_EXPECT(state.programmed && "retention stress targets written data");
  const double pe = block_wear_[addr.block];
  const double mean = disturb_.retention_mean(hours, pe).value();
  const double sigma = disturb_.retention_sigma(hours, pe).value();
  for (Volts& vth : state.vth) {
    // Only cells holding charge detrap; the erased level is its own
    // equilibrium.
    if (vth < config_.plan.read[0]) continue;
    const double loss = std::max(0.0, rng_.gaussian(mean, sigma));
    vth = vth + Volts{-loss};
  }
}

void NandArray::apply_read_disturb(PageAddress addr,
                                   unsigned long long reads) {
  PageState& state = page(addr);
  if (!state.materialised) {
    state.vth = erased_vth(state);
    state.materialised = true;
  }
  const double mean = disturb_.read_disturb_shift(reads).value();
  for (Volts& vth : state.vth) {
    // Weak gate stress mostly moves the erased population upward.
    if (vth >= config_.plan.read[0]) continue;
    const double shift = std::max(0.0, rng_.gaussian(mean, 0.3 * mean));
    vth = vth + Volts{shift};
  }
}

double monte_carlo_rber(const ArrayConfig& base_config, ProgramAlgorithm algo,
                        double pe_cycles, unsigned pages, ProgramMode mode,
                        std::uint64_t seed) {
  XLF_EXPECT(pages >= 1);
  ArrayConfig config = base_config;
  config.geometry.blocks = 1;
  config.geometry.pages_per_block = 1;
  config.seed = seed;

  NandArray array(config);
  Rng data_rng(seed ^ 0xD1CEBA5Eull);
  std::uint64_t errors = 0;
  std::uint64_t bits_total = 0;
  const PageAddress addr{0, 0};
  for (unsigned p = 0; p < pages; ++p) {
    // Set the wear before erasing so the fresh cell population is
    // sampled with the aged parameters.
    array.set_wear(0, pe_cycles);
    array.erase_block(0);
    array.set_wear(0, pe_cycles);
    BitVec data(config.geometry.bits_per_page());
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.set(i, data_rng.chance(0.5));
    }
    array.program_page(addr, data, algo, mode);
    errors += array.read_page(addr).hamming_distance(data);
    bits_total += data.size();
  }
  return static_cast<double>(errors) / static_cast<double>(bits_total);
}

}  // namespace xlf::nand
