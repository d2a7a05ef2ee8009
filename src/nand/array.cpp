#include "src/nand/array.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/util/expect.hpp"

namespace xlf::nand {
namespace {

// Gaussian draws an erase owes each cell, in stream order: the erased
// threshold (VariabilitySampler::sample_erased), then the onset offset
// and sharpness (VariabilitySampler::sample).
constexpr std::uint64_t kDrawsPerCell = 3;

// Page words hold 32 cells; cell i's MSB is bit 2i, its LSB bit 2i+1.
constexpr std::uint64_t kMsbBits = 0x5555555555555555ull;

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

// The level written to cell `cell` of a page's bits.
Level written_level(const BitVec& bits, std::size_t cell) {
  const std::uint64_t pair = bits.word(cell / 32) >> (2 * (cell % 32));
  return bits_to_level(Bits2{(pair & 1u) != 0, (pair & 2u) != 0});
}

// Cells of page word `w` written to L0 (MSB and LSB set) and to a
// programmed level, as MSB bit positions. Bits past the page are zero,
// which would read as L2, so the last word is masked to the page.
struct WordCells {
  std::uint64_t erased;
  std::uint64_t programmed;
};
WordCells word_cells(const BitVec& bits, std::size_t w) {
  const std::uint64_t word = bits.word(w);
  const std::uint64_t erased = word & (word >> 1) & kMsbBits;
  const std::size_t tail = bits.size() - 64 * w;
  const std::uint64_t page = tail >= 64 ? kMsbBits
                                        : kMsbBits & ((1ull << tail) - 1);
  return {erased, page & ~erased};
}

// The cells of a page written to L1..L3, taken in ascending order:
// select(j) is the cell of the j-th of them, for ascending j.
class ProgrammedCells {
 public:
  explicit ProgrammedCells(const BitVec& bits) : bits_(bits) {}
  std::uint32_t select(std::uint64_t j) {
    for (;; ++word_) {
      std::uint64_t mask = word_cells(bits_, word_).programmed;
      const auto count = static_cast<std::uint64_t>(std::popcount(mask));
      if (j - before_ < count) {
        for (std::uint64_t skip = j - before_; skip > 0; --skip) {
          mask &= mask - 1;
        }
        return static_cast<std::uint32_t>(32 * word_ +
                                          std::countr_zero(mask) / 2);
      }
      before_ += count;
    }
  }

 private:
  const BitVec& bits_;
  std::size_t word_ = 0;
  std::uint64_t before_ = 0;  // programmed cells in the words before
};

// A floor that reports every draw: no pair's u1 bits exceed 2^53 - 1.
constexpr std::uint64_t kSenseAll = (std::uint64_t{1} << 53) - 1;

// The sensing floor of a level: the largest u1 bits (next() >> 11) of
// a Box-Muller pair whose draw z might place mean + sigma * z outside
// the level's band, where the cell reads another level or is
// over-programmed. A draw whose pair's u1 bits exceed the floor stays
// inside, proved by its radius alone. The bands are L0 (-inf, R1),
// L1 [R1, R2), L2 [R2, R3) and L3 [R3, OP]; the ordering every plan
// is checked for (VoltagePlan::consistent) makes reading a level the
// same as lying in its band.
//
// The proof, with r = min(mean - lo, hi - mean) / sigma. A draw's
// value is fl(rho * c), with rho = fl(sqrt(-2 log u1)) and |c| <= 1
// for libm's cos and sin, so |z| <= rho by monotone rounding. A draw
// is admitted when u1 > exp(-r_a^2 / 2), at r_a = r (1 - 1e-6). The
// last-ulp errors of exp, log and sqrt then keep rho / r_a below
// 1 + 2^-51 / r_a^2 + 2^-50: under 1e-9 for r_a >= 1e-3, far inside
// the gap to r_c = r (1 - 1e-7). So |z| <= r_c, and by monotone
// rounding mean + sigma * z lies between mean - sigma * r_c and
// mean + sigma * r_c, which are checked against the band in floating
// point, by the very expression a cell's threshold takes. A level
// that fails the check (its mean outside its band, or sigma zero), or
// whose r_a is below 1e-3, admits nothing: every draw is reported.
std::uint64_t sense_floor(const VoltagePlan& plan, Level level,
                          const LevelDistribution& dist) {
  const auto k = static_cast<std::size_t>(level);
  const double lo = level == Level::kL0
                        ? -std::numeric_limits<double>::infinity()
                        : plan.read[k - 1].value();
  const double hi = level == Level::kL3 ? plan.over_program.value()
                                        : plan.read[k].value();
  const double mean = dist.mean.value();
  const double sigma = dist.sigma.value();
  const double r = std::min(mean - lo, hi - mean) / sigma;
  const double r_check = r * (1.0 - 1e-7);
  const double r_admit = r * (1.0 - 1e-6);
  if (!(r_admit >= 1e-3) || !(mean + sigma * -r_check >= lo) ||
      !(mean + sigma * r_check < hi)) {
    return kSenseAll;
  }
  return static_cast<std::uint64_t>(std::exp(-0.5 * r_admit * r_admit) *
                                    0x1.0p53);
}

}  // namespace

NandArray::NandArray(const ArrayConfig& config)
    : config_(config),
      variability_(config.variability, config.aging),
      ispp_(config.ispp, config.plan),
      interference_(config.interference),
      rber_(config.plan, config.aging, config.ispp, config.variability,
            config.interference),
      max_cycles_(rber_.max_cycles()),
      disturb_(config.disturb),
      rng_(config.seed),
      erase_wear_(config.geometry.blocks, 0.0),
      erased_floor_(sense_floor(config.plan, Level::kL0,
                                {config.plan.erased_mean,
                                 config.plan.erased_sigma})),
      pages_(config.geometry.pages()) {
  XLF_EXPECT(config.geometry.blocks >= 1);
  XLF_EXPECT(config.geometry.pages_per_block >= 1);
  // The factory erase draws the cells at one cycle, though the block
  // is counted fresh (NandDevice starts every wear at 0).
  for (std::uint32_t b = 0; b < config_.geometry.blocks; ++b) {
    erase_block(b, 1.0);
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

void NandArray::check_wear(std::uint32_t block, double pe_cycles) const {
  XLF_EXPECT(block < config_.geometry.blocks);
  XLF_EXPECT(pe_cycles >= 0.0);
  XLF_EXPECT_MSG(pe_cycles < max_cycles_, [&] {
    std::ostringstream msg;
    msg << "bit-true block " << block << " would reach " << pe_cycles
        << " P/E cycles, at or past the array's limit of " << max_cycles_
        << " (past it the aging law's RBER outgrows the widest read-time "
           "distribution the model solves for)";
    return msg.str();
  }());
}

void NandArray::erase_block(std::uint32_t block, double pe_cycles) {
  check_wear(block, pe_cycles);
  erase_wear_[block] = pe_cycles;
  const std::uint64_t draws =
      kDrawsPerCell * config_.geometry.cells_per_page();
  for (std::uint32_t p = 0; p < config_.geometry.pages_per_block; ++p) {
    PageState& state = pages_[block * config_.geometry.pages_per_block + p];
    state.erase_stream = rng_;
    state.erase_exceptions.clear();
    state.materialised = false;
    state.programmed = false;
    // Of a cell's three draws only the first, its erased threshold, is
    // ever sensed.
    rng_.discard_gaussians(
        draws, erased_floor_, [&](std::uint64_t i, const Rng::NormalDraw&) {
          if (i % kDrawsPerCell != 0) return;
          state.erase_exceptions.push_back(  // xlf-lint: allow(hot-alloc)
              static_cast<std::uint32_t>(i / kDrawsPerCell));
          ++sense_counts_.erase_exceptions;
        });
  }
}

std::vector<Volts>& NandArray::storage(PageState& state) {
  state.vth.resize(config_.geometry.cells_per_page());  // xlf-lint: allow(hot-alloc)
  return state.vth;
}

Volts NandArray::erased_vth(ErasedReplay& replay, std::uint32_t cell) const {
  XLF_EXPECT(kDrawsPerCell * cell >= replay.drawn);  // ascending cells
  replay.stream.discard_gaussians(kDrawsPerCell * cell - replay.drawn);
  replay.drawn = kDrawsPerCell * cell + 1;
  return variability_.sample_erased(replay.stream, config_.plan.erased_mean,
                                    config_.plan.erased_sigma);
}

std::vector<Volts> NandArray::replay(const PageState& state) const {
  std::vector<Volts> vth(config_.geometry.cells_per_page());
  ErasedReplay erased{state.erase_stream};
  for (std::uint32_t i = 0; i < vth.size(); ++i) {
    vth[i] = erased_vth(erased, i);
  }
  if (state.programmed) write_programmed(state, vth);
  return vth;
}

void NandArray::write_programmed(const PageState& state,
                                 std::vector<Volts>& vth) const {
  Rng stream = state.program_stream;
  for (std::size_t i = 0; i < vth.size(); ++i) {
    const Level level = written_level(state.written, i);
    if (level == Level::kL0) continue;
    const LevelDistribution& dist =
        state.dist[static_cast<std::size_t>(level)];
    vth[i] = Volts{stream.gaussian(dist.mean.value(), dist.sigma.value())};
  }
}

void NandArray::materialise(PageState& state) {
  if (state.materialised) return;
  state.vth = replay(state);
  state.materialised = true;
}

bool NandArray::is_erased(PageAddress addr) const {
  return !page(addr).programmed;
}

const BitVec& NandArray::written(PageAddress addr) const {
  const PageState& state = page(addr);
  XLF_EXPECT(state.programmed);
  return state.written;
}

std::vector<Level> NandArray::bits_to_levels(const BitVec& bits) {
  XLF_EXPECT(bits.size() % 2 == 0);
  std::vector<Level> levels(bits.size() / 2);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    levels[i] = written_level(bits, i);
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
                                      ProgramAlgorithm algo, double pe_cycles,
                                      ProgramMode mode) {
  PageState& state = page(addr);
  XLF_EXPECT(!state.programmed);  // NAND constraint: program-after-erase
  XLF_EXPECT(bits.size() == config_.geometry.bits_per_page());
  state.written = bits;

  ProgramResult result;
  if (mode == ProgramMode::kIsppSimulation) {
    result.trace = program_ispp(state, bits_to_levels(bits), algo, pe_cycles,
                                erase_wear_[addr.block]);
    result.ok = result.trace->converged;
    state.materialised = true;
    for (Volts vth : state.vth) {
      result.over_programmed_cells += config_.plan.is_over_programmed(vth);
    }
  } else {
    result.over_programmed_cells =
        program_statistical(state, bits, algo, pe_cycles);
  }
  state.programmed = true;
  return result;
}

unsigned NandArray::program_statistical(PageState& state, const BitVec& bits,
                                        ProgramAlgorithm algo, double pe) {
  // Each programmed cell takes one draw from the calibrated read-time
  // distribution of its level, in cell order; erased cells stay put.
  // The level distributions are looked up once per level the page
  // holds, which fills RberModel's sigma cache through the same calls
  // as a per-cell lookup.
  std::array<std::uint64_t, 4> cells{};  // per level
  const auto add = [&](Level level, std::uint64_t mask) {
    cells[static_cast<std::size_t>(level)] +=
        static_cast<std::uint64_t>(std::popcount(mask));
  };
  for (std::size_t w = 0; w < bits.words().size(); ++w) {
    const std::uint64_t msb = bits.word(w) & kMsbBits;
    const std::uint64_t lsb = bits.word(w) >> 1 & kMsbBits;
    const WordCells split = word_cells(bits, w);
    add(Level::kL0, split.erased);
    add(Level::kL1, ~msb & lsb);
    add(Level::kL2, split.programmed & ~msb & ~lsb);
    add(Level::kL3, msb & ~lsb);
  }
  std::array<std::uint64_t, 4> floors{};
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    const auto k = static_cast<std::size_t>(level);
    if (cells[k] == 0) continue;
    state.dist[k] = rber_.distribution(level, algo, pe);
    floors[k] = sense_floor(config_.plan, level, state.dist[k]);
  }
  state.program_stream = rng_;
  const std::uint64_t draws = cells[1] + cells[2] + cells[3];

  if (state.materialised) {
    // Thresholds stored before the program (read disturb of the erased
    // page) stay stored: the erased cells keep theirs, and the
    // programmed cells take the draws replayed from the program stream.
    rng_.discard_gaussians(draws);
    write_programmed(state, state.vth);
    unsigned over = 0;
    for (Volts vth : state.vth) over += config_.plan.is_over_programmed(vth);
    return over;
  }

  // Sense: a draw whose radius keeps it inside its level's band reads
  // as written. The walk reports the draws at or below the highest
  // floor of the page's levels; those at or below their own level's
  // floor, and the erased cells the erase recorded, get an exact
  // threshold. A held value has no radius (u1 = 0) and is evaluated.
  state.misreads.clear();
  unsigned over = 0;
  const auto sense = [&](std::uint32_t cell, Level written, Volts vth) {
    ++sense_counts_.exact_cells;
    const Level level = config_.plan.read_level(vth);
    if (level != written) {
      state.misreads.push_back({cell, level});  // xlf-lint: allow(hot-alloc)
    }
    over += config_.plan.is_over_programmed(vth);
  };
  ProgrammedCells programmed(bits);
  rng_.discard_gaussians(
      draws, *std::max_element(floors.begin(), floors.end()),
      [&](std::uint64_t j, const Rng::NormalDraw& draw) {
        const std::uint32_t cell = programmed.select(j);
        const Level level = written_level(bits, cell);
        const auto k = static_cast<std::size_t>(level);
        // u1 > floor / 2^53 exactly when u1's bits exceed the floor.
        if (draw.u1 > static_cast<double>(floors[k]) * 0x1.0p-53) return;
        const LevelDistribution& dist = state.dist[k];
        sense(cell, level,
              Volts{dist.mean.value() + dist.sigma.value() * draw.value()});
      });
  ErasedReplay erased{state.erase_stream};
  for (std::uint32_t cell : state.erase_exceptions) {
    if (written_level(bits, cell) == Level::kL0) {
      sense(cell, Level::kL0, erased_vth(erased, cell));
    }
  }
  return over;
}

IsppTrace NandArray::program_ispp(PageState& state,
                                  std::span<const Level> targets,
                                  ProgramAlgorithm algo, double pe,
                                  double erase_wear) {
  // Rebuild the page's cells: the stored thresholds (or the erased
  // ones), with the parameters the erase drew at its wear.
  std::vector<FloatingGateCell> cells(targets.size());
  Rng stream = state.erase_stream;
  const VariabilitySampler::AtWear at_erase =
      variability_.at_wear(erase_wear);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Volts erased = variability_.sample_erased(
        stream, config_.plan.erased_mean, config_.plan.erased_sigma);
    cells[i] = FloatingGateCell(state.materialised ? state.vth[i] : erased,
                                at_erase.sample(stream));
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
  const std::array<std::uint64_t, 4> pairs = level_bit_pairs();
  BitVec bits(config_.geometry.bits_per_page());
  if (state.materialised) {
    // 32 cells per 64-bit word.
    const std::vector<Volts>& vth = state.vth;
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
  const auto patch = [&](std::uint32_t cell, Level level) {
    const std::size_t w = cell / 32;
    const unsigned shift = 2 * (cell % 32);
    bits.set_word(w, (bits.word(w) & ~(3ull << shift)) |
                         pairs[static_cast<std::size_t>(level)] << shift);
  };
  if (state.programmed) {
    bits = state.written;
    for (const Misread& m : state.misreads) patch(m.cell, m.level);
    return bits;
  }
  // A page left erased reads L0 (all ones) but for its exceptions.
  for (std::size_t w = 0; w < bits.words().size(); ++w) bits.set_word(w, ~0ull);
  ErasedReplay erased{state.erase_stream};
  for (std::uint32_t cell : state.erase_exceptions) {
    patch(cell, config_.plan.read_level(erased_vth(erased, cell)));
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
  return state.materialised ? state.vth : replay(state);
}

void NandArray::apply_retention(PageAddress addr, double hours,
                                double pe_cycles) {
  PageState& state = page(addr);
  XLF_EXPECT(state.programmed && "retention stress targets written data");
  materialise(state);
  const double mean = disturb_.retention_mean(hours, pe_cycles).value();
  const double sigma = disturb_.retention_sigma(hours, pe_cycles).value();
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
  materialise(state);
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
    // The erase's cycle samples the fresh cells with the aged
    // parameters; the page programs at the requested age.
    array.erase_block(0, pe_cycles + 1.0);
    BitVec data(config.geometry.bits_per_page());
    for (std::size_t w = 0; w < data.words().size(); ++w) {
      data.set_word(w, data_rng.coin_flips(static_cast<unsigned>(
                           std::min<std::size_t>(64, data.size() - 64 * w))));
    }
    array.program_page(addr, data, algo, pe_cycles, mode);
    errors += array.read_page(addr).hamming_distance(data);
    bits_total += data.size();
  }
  return static_cast<double>(errors) / static_cast<double>(bits_total);
}

}  // namespace xlf::nand
