// Bit-true NAND array: every cell carries an analog threshold
// voltage; pages are programmed through the ISPP engine (or a
// statistically equivalent placement), aged per block, disturbed by
// neighbours, and read back against R1..R3.
//
// Bit-to-cell mapping: page bit 2i is the MSB (upper page) and bit
// 2i+1 the LSB (lower page) of cell i, Gray-coded onto L0..L3.
//
// An erase samples nothing. It records where the array's noise stream
// stands for each page (the page's erase stream) and advances the
// stream past the draws an eager erase would make: per cell, the
// erased threshold and the cell's onset offset and sharpness. The
// page's erased cells are a pure function of that stream, so they are
// replayed when needed.
//
// A statistical program senses instead of sampling. It takes each
// programmed cell's draw from the array's stream, exactly as sampling
// would, but decides the cell's read level from the radius of the
// draw's Box-Muller pair, and computes the threshold only when the
// radius could carry it past a read reference or the over-programming
// bound. The erase records the erased cells whose draw could cross R1.
// A sensed page stores its written bits, its two stream positions and
// the few cells that read another level; a read is a copy plus a
// patch, and exact thresholds are replayed from the streams. ISPP
// programs, retention and read disturb store one threshold per cell.
//
// The array keeps no wear count: the caller (NandDevice) owns it and
// passes it to every erase, program and retention bake.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/nand/aging.hpp"
#include "src/nand/disturb.hpp"
#include "src/nand/geometry.hpp"
#include "src/nand/interference.hpp"
#include "src/nand/ispp.hpp"
#include "src/nand/rber_model.hpp"
#include "src/nand/threshold.hpp"
#include "src/nand/variability.hpp"
#include "src/util/bitvec.hpp"
#include "src/util/rng.hpp"

namespace xlf::nand {

struct ArrayConfig {
  Geometry geometry;
  VoltagePlan plan;
  IsppConfig ispp;
  VariabilityConfig variability;
  InterferenceConfig interference;
  AgingLaw aging;
  DisturbConfig disturb;
  std::uint64_t seed = 1;
};

// How a page program places thresholds.
enum class ProgramMode {
  // Full ISPP pulse-by-pulse simulation plus wear spread: slow,
  // bit-true, produces a real IsppTrace.
  kIsppSimulation,
  // Placement from the calibrated read-time distributions, sensed
  // (see above): fast, statistically identical for RBER purposes.
  kStatistical,
};

struct ProgramResult {
  bool ok = true;
  // Populated in kIsppSimulation mode.
  std::optional<IsppTrace> trace;
  unsigned over_programmed_cells = 0;
};

class NandArray {
 public:
  explicit NandArray(const ArrayConfig& config);

  const ArrayConfig& config() const { return config_; }
  const RberModel& rber_model() const { return rber_; }

  // --- block operations ---------------------------------------------
  // Erase returns every page of the block to a fresh draw from the
  // erased distribution (recorded, not sampled; see above). The cells'
  // parameters follow `pe_cycles`, the block's wear with this erase
  // counted. Throws std::invalid_argument, changing nothing, when
  // check_wear rejects it.
  void erase_block(std::uint32_t block, double pe_cycles);
  // Throws std::invalid_argument when `pe_cycles` is negative or, naming
  // the wear and the limit, at or past the model's domain
  // (RberModel::max_cycles()).
  void check_wear(std::uint32_t block, double pe_cycles) const;

  // --- page operations ------------------------------------------------
  // `pe_cycles` is the block's wear at the program (or bake).
  bool is_erased(PageAddress addr) const;
  ProgramResult program_page(PageAddress addr, const BitVec& bits,
                             ProgramAlgorithm algo, double pe_cycles,
                             ProgramMode mode = ProgramMode::kStatistical);
  BitVec read_page(PageAddress addr) const;
  // The bits a programmed page was written with.
  const BitVec& written(PageAddress addr) const;
  // Raw level view for distribution diagnostics.
  std::vector<Level> read_levels(PageAddress addr) const;
  std::vector<Volts> thresholds(PageAddress addr) const;

  static std::vector<Level> bits_to_levels(const BitVec& bits);
  static BitVec levels_to_bits(const std::vector<Level>& levels);

  // --- stress injection (beyond the average-case RBER law) -----------
  // Retention bake: programmed cells of the page lose charge for
  // `hours` at the block's wear state (erased cells are unaffected).
  void apply_retention(PageAddress addr, double hours, double pe_cycles);
  // Read disturb: `reads` block reads creep the page's erased cells
  // upward toward R1.
  void apply_read_disturb(PageAddress addr, unsigned long long reads);

  // How sensing went over the array's lifetime (diagnostics, tests).
  struct SenseCounts {
    // Cells whose threshold a statistical program computed exactly,
    // because the radius bound could not decide their read level.
    std::uint64_t exact_cells = 0;
    // Erased cells an erase recorded because their draw could reach R1.
    std::uint64_t erase_exceptions = 0;
  };
  const SenseCounts& sense_counts() const { return sense_counts_; }

 private:
  // A cell of a sensed page that reads another level than written.
  struct Misread {
    std::uint32_t cell = 0;
    Level level = Level::kL0;
  };
  struct PageState {
    // The array's noise stream as it stood at this page's erase.
    Rng erase_stream;
    // Cells whose erased threshold may read above L0, ascending.
    std::vector<std::uint32_t> erase_exceptions;
    // The bits the page was programmed with (either mode).
    BitVec written;
    // A statistical program: the array's stream at its start and the
    // level distributions it drew from.
    Rng program_stream;
    std::array<LevelDistribution, 4> dist{};
    // Sensed pages: the cells whose threshold reads another level.
    std::vector<Misread> misreads;
    // One threshold per cell; valid once materialised (by an ISPP
    // program, retention, or read disturb).
    std::vector<Volts> vth;
    bool materialised = false;
    bool programmed = false;
  };
  // A page's erase stream replayed forward: the erased threshold of
  // each cell asked for, in ascending cell order.
  struct ErasedReplay {
    Rng stream;
    std::uint64_t drawn = 0;  // draws of the stream already taken
  };
  PageState& page(PageAddress addr);
  const PageState& page(PageAddress addr) const;
  void check_addr(PageAddress addr) const;
  // The page's threshold storage, sized on first use; erases keep it.
  std::vector<Volts>& storage(PageState& state);
  Volts erased_vth(ErasedReplay& replay, std::uint32_t cell) const;
  // Every cell's exact threshold, replayed from the page's streams.
  std::vector<Volts> replay(const PageState& state) const;
  // Overwrites the programmed (non-L0) cells of `vth` with the draws a
  // statistical program took for them.
  void write_programmed(const PageState& state, std::vector<Volts>& vth) const;
  // Stores the page's exact thresholds; the page then reads from them.
  void materialise(PageState& state);
  // Returns the over-programmed cell count.
  unsigned program_statistical(PageState& state, const BitVec& bits,
                               ProgramAlgorithm algo, double pe);
  IsppTrace program_ispp(PageState& state, std::span<const Level> targets,
                         ProgramAlgorithm algo, double pe, double erase_wear);

  ArrayConfig config_;
  VariabilitySampler variability_;
  IsppEngine ispp_;
  InterferenceModel interference_;
  RberModel rber_;
  // rber_.max_cycles(): past it effective_sigma cannot solve.
  double max_cycles_;
  DisturbModel disturb_;
  Rng rng_;
  // Wear at each block's last erase: what its cells were sampled at.
  std::vector<double> erase_wear_;
  // The erase's sensing floor for the erased threshold (see array.cpp).
  std::uint64_t erased_floor_;
  std::vector<PageState> pages_;
  SenseCounts sense_counts_;
};

// Monte-Carlo RBER measurement: program `pages` pages of random data
// at the given age and count raw read errors. Cross-validates the
// closed-form law (Fig. 5 companion experiment).
double monte_carlo_rber(const ArrayConfig& base_config, ProgramAlgorithm algo,
                        double pe_cycles, unsigned pages, ProgramMode mode,
                        std::uint64_t seed);

}  // namespace xlf::nand
