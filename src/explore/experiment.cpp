#include "src/explore/experiment.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/explore/monte_carlo.hpp"
#include "src/explore/report.hpp"
#include "src/explore/sweep.hpp"
#include "src/host/command.hpp"
#include "src/nand/rber_model.hpp"
#include "src/policy/policy.hpp"
#include "src/sim/host_workload.hpp"
#include "src/util/stats.hpp"

namespace xlf::explore {
namespace {

[[noreturn]] void spec_error(const std::string& what) {
  throw std::invalid_argument("experiment spec: " + what);
}

// Strict-object helper: every known key is consumed through find();
// finish() rejects the leftovers so a typo ("qeue_depths") fails
// loudly instead of silently running the default.
class StrictObject {
 public:
  StrictObject(const JsonValue& value, std::string path)
      : value_(value), path_(std::move(path)) {
    if (!value_.is_object()) {
      spec_error("'" + path_ + "' must be an object");
    }
  }

  // The member under `key`, or nullptr when absent.
  const JsonValue* find(const std::string& key) {
    consumed_.push_back(key);
    if (!value_.has(key)) return nullptr;
    return &value_.at(key);
  }

  void finish() const {
    for (const std::string& key : value_.keys()) {
      bool known = false;
      for (const std::string& c : consumed_) {
        if (c == key) {
          known = true;
          break;
        }
      }
      if (!known) {
        std::string message = "unknown key '" + key + "' in " + path_ +
                              "; known keys:";
        for (const std::string& c : consumed_) message += " " + c;
        spec_error(message);
      }
    }
  }

 private:
  const JsonValue& value_;
  std::string path_;
  std::vector<std::string> consumed_;
};

double as_number(const JsonValue& v, const std::string& key) {
  if (v.type() != JsonValue::Type::kNumber) {
    spec_error("'" + key + "' must be a number");
  }
  return v.as_number();
}

// JSON numbers are doubles: only integers below 2^53 are exact, and
// a cast from a double at or above 2^64 is undefined behaviour — so
// both integer readers share one checked range.
double checked_integer(const JsonValue& v, const std::string& key) {
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  const double n = as_number(v, key);
  if (n < 0.0 || n != std::floor(n) || n > kMaxExactInteger) {
    spec_error("'" + key +
               "' must be a non-negative integer below 2^53 (JSON numbers "
               "are doubles)");
  }
  return n;
}

std::size_t as_index(const JsonValue& v, const std::string& key) {
  return static_cast<std::size_t>(checked_integer(v, key));
}

std::uint64_t as_u64(const JsonValue& v, const std::string& key) {
  return static_cast<std::uint64_t>(checked_integer(v, key));
}

// A key the configuration holds in 32 bits: a larger value is an
// error, never a wrap.
std::uint32_t as_u32(const JsonValue& v, const std::string& key) {
  const double n = checked_integer(v, key);
  if (n > static_cast<double>(UINT32_MAX)) {
    spec_error("'" + key + "' must be <= 4294967295 (it is a 32-bit count)");
  }
  return static_cast<std::uint32_t>(n);
}

bool as_bool(const JsonValue& v, const std::string& key) {
  if (v.type() != JsonValue::Type::kBool) {
    spec_error("'" + key + "' must be true or false");
  }
  return v.as_bool();
}

const std::string& as_string(const JsonValue& v, const std::string& key) {
  if (v.type() != JsonValue::Type::kString) {
    spec_error("'" + key + "' must be a string");
  }
  return v.as_string();
}

std::vector<std::string> as_string_list(const JsonValue& v,
                                        const std::string& key) {
  if (!v.is_array() || v.items().empty()) {
    spec_error("'" + key + "' must be a non-empty array of strings");
  }
  std::vector<std::string> out;
  for (const JsonValue& item : v.items()) out.push_back(as_string(item, key));
  return out;
}

// Validates each name against its kind's table; an unknown name
// throws parse's message (which lists the alternatives).
template <class P>
void check_policies(const std::vector<std::string>& names) {
  for (const std::string& name : names) (void)policy::parse<P>(name);
}

void check_point_name(const std::string& name) {
  if (name != "baseline" && name != "min-uber" && name != "max-read") {
    spec_error("unknown operating point '" + name +
               "'; available: baseline min-uber max-read");
  }
}

core::OperatingPoint make_point(const std::string& name) {
  if (name == "min-uber") return core::OperatingPoint::min_uber();
  if (name == "max-read") return core::OperatingPoint::max_read();
  return core::OperatingPoint::baseline();
}

// The CLI/spec workload names. AccessPattern's defaults are theirs:
// mixed reads 70 % of the time, streaming runs at 8 MiB/s.
std::optional<sim::AccessPattern> make_workload(const std::string& name) {
  static const std::pair<const char*, sim::Pattern> kNames[] = {
      {"sequential-read", sim::Pattern::kSequentialRead},
      {"random-read", sim::Pattern::kRandomRead},
      {"write-burst", sim::Pattern::kWriteBurst},
      {"mixed", sim::Pattern::kMixed},
      {"streaming", sim::Pattern::kStreaming},
  };
  for (const auto& [known, kind] : kNames) {
    if (name == known) return sim::AccessPattern{kind};
  }
  return std::nullopt;
}

void parse_ages(StrictObject& root, ExperimentSpec& spec) {
  const JsonValue* ages = root.find("ages");
  if (ages == nullptr) return;
  StrictObject obj(*ages, "ages");
  if (const JsonValue* v = obj.find("lo")) spec.age_lo = as_number(*v, "lo");
  if (const JsonValue* v = obj.find("hi")) spec.age_hi = as_number(*v, "hi");
  if (const JsonValue* v = obj.find("points")) {
    spec.age_points = as_index(*v, "points");
  }
  obj.finish();
  if (spec.age_points < 2 || spec.age_lo <= 0.0 ||
      spec.age_hi <= spec.age_lo) {
    std::ostringstream msg;
    msg << "invalid ages grid lo=" << spec.age_lo << " hi=" << spec.age_hi
        << " points=" << spec.age_points
        << " (need lo > 0, hi > lo, points >= 2)";
    spec_error(msg.str());
  }
}

void parse_monte_carlo(StrictObject& root, ExperimentSpec& spec) {
  const JsonValue* mc = root.find("monte_carlo");
  if (mc == nullptr) return;
  StrictObject obj(*mc, "monte_carlo");
  if (const JsonValue* v = obj.find("replicas")) {
    spec.mc_replicas = as_index(*v, "replicas");
  }
  if (const JsonValue* v = obj.find("requests")) {
    spec.mc_requests = as_index(*v, "requests");
    if (spec.mc_requests < 1) spec_error("'requests' must be >= 1");
  }
  if (const JsonValue* v = obj.find("age")) {
    spec.mc_age = as_number(*v, "age");
    if (spec.mc_age < 0.0) {
      spec_error("'age' must be >= 0 (omit it for the last grid age)");
    }
  }
  if (const JsonValue* v = obj.find("workloads")) {
    spec.mc_workloads = as_string_list(*v, "workloads");
  }
  obj.finish();
  for (const std::string& name : spec.mc_workloads) {
    if (!make_workload(name).has_value()) {
      spec_error("unknown workload '" + name +
                 "'; available: sequential-read random-read write-burst "
                 "mixed streaming");
    }
  }
}

void parse_geometry(StrictObject& root, ExperimentSpec& spec) {
  const JsonValue* geometry = root.find("geometry");
  if (geometry == nullptr) return;
  StrictObject obj(*geometry, "geometry");
  if (const JsonValue* v = obj.find("blocks")) {
    spec.ftl.base.die.device.array.geometry.blocks = as_u32(*v, "blocks");
  }
  if (const JsonValue* v = obj.find("pages_per_block")) {
    spec.ftl.base.die.device.array.geometry.pages_per_block =
        as_u32(*v, "pages_per_block");
  }
  obj.finish();
}

void parse_ftl(StrictObject& root, ExperimentSpec& spec) {
  const JsonValue* ftl = root.find("ftl");
  if (ftl == nullptr) return;
  StrictObject obj(*ftl, "ftl");
  ftl::FtlConfig& config = spec.ftl.base.ftl;
  if (const JsonValue* v = obj.find("pe_cycles_per_erase")) {
    config.pe_cycles_per_erase = as_number(*v, "pe_cycles_per_erase");
  }
  if (const JsonValue* v = obj.find("logical_fraction")) {
    config.logical_fraction = as_number(*v, "logical_fraction");
    if (config.logical_fraction <= 0.0 || config.logical_fraction >= 1.0) {
      spec_error("'logical_fraction' must lie in (0, 1)");
    }
  }
  if (const JsonValue* v = obj.find("gc_free_blocks")) {
    config.gc_free_blocks = as_u32(*v, "gc_free_blocks");
  }
  if (const JsonValue* v = obj.find("static_wl_spread")) {
    config.static_wl_spread = as_u32(*v, "static_wl_spread");
  }
  if (const JsonValue* v = obj.find("scrub_retention_hours")) {
    config.scrub_retention_hours = as_number(*v, "scrub_retention_hours");
    if (config.scrub_retention_hours < 0.0) {
      spec_error("'scrub_retention_hours' must be >= 0");
    }
  }
  obj.finish();
}

void parse_workload(StrictObject& root, ExperimentSpec& spec) {
  const JsonValue* workload = root.find("workload");
  if (workload == nullptr) return;
  StrictObject obj(*workload, "workload");
  if (const JsonValue* v = obj.find("requests")) {
    spec.ftl.requests = as_index(*v, "requests");
    if (spec.ftl.requests < 1) spec_error("'requests' must be >= 1");
  }
  if (const JsonValue* v = obj.find("read_fraction")) {
    spec.ftl.read_fraction = as_number(*v, "read_fraction");
    if (spec.ftl.read_fraction < 0.0 || spec.ftl.read_fraction >= 1.0) {
      spec_error("'read_fraction' must lie in [0, 1)");
    }
  }
  if (const JsonValue* v = obj.find("hot_fraction")) {
    spec.ftl.hot_fraction = as_number(*v, "hot_fraction");
    if (spec.ftl.hot_fraction <= 0.0 || spec.ftl.hot_fraction > 1.0) {
      spec_error("'hot_fraction' must lie in (0, 1]");
    }
  }
  if (const JsonValue* v = obj.find("hot_write_fraction")) {
    spec.ftl.hot_write_fraction = as_number(*v, "hot_write_fraction");
    if (spec.ftl.hot_write_fraction < 0.0 ||
        spec.ftl.hot_write_fraction > 1.0) {
      spec_error("'hot_write_fraction' must lie in [0, 1]");
    }
  }
  if (const JsonValue* v = obj.find("trim_fraction")) {
    spec.ftl.trim_fraction = as_number(*v, "trim_fraction");
    if (spec.ftl.trim_fraction < 0.0 || spec.ftl.trim_fraction >= 1.0) {
      spec_error("'trim_fraction' must lie in [0, 1)");
    }
  }
  if (const JsonValue* v = obj.find("queue_weights")) {
    if (!v->is_array() || v->items().empty()) {
      spec_error("'queue_weights' must be a non-empty array of numbers > 0");
    }
    spec.ftl.queue_weights.clear();
    for (const JsonValue& item : v->items()) {
      const double weight = as_number(item, "queue_weights");
      if (weight <= 0.0) {
        spec_error("'queue_weights' entries must be > 0");
      }
      spec.ftl.queue_weights.push_back(weight);
    }
  }
  if (const JsonValue* v = obj.find("prepopulate")) {
    spec.ftl.prepopulate = as_bool(*v, "prepopulate");
  }
  obj.finish();
}

void parse_sweep(StrictObject& root, ExperimentSpec& spec) {
  const JsonValue* sweep = root.find("sweep");
  if (sweep == nullptr) return;
  StrictObject obj(*sweep, "sweep");
  if (const JsonValue* v = obj.find("topologies")) {
    spec.ftl.topologies.clear();
    for (const std::string& part : as_string_list(*v, "topologies")) {
      const std::optional<controller::DispatchConfig> topology =
          parse_topology(part);
      if (!topology.has_value()) {
        spec_error("topology '" + part +
                   "' must be CxD (channels x dies per channel), e.g. \"2x1\"");
      }
      spec.ftl.topologies.push_back(*topology);
    }
  }
  if (const JsonValue* v = obj.find("queue_depths")) {
    if (!v->is_array() || v->items().empty()) {
      spec_error("'queue_depths' must be a non-empty array of integers >= 1");
    }
    spec.ftl.queue_depths.clear();
    for (const JsonValue& item : v->items()) {
      const std::size_t qd = as_index(item, "queue_depths");
      if (qd < 1) spec_error("'queue_depths' entries must be >= 1");
      spec.ftl.queue_depths.push_back(qd);
    }
  }
  if (const JsonValue* v = obj.find("queues")) {
    if (!v->is_array() || v->items().empty()) {
      spec_error("'queues' must be a non-empty array of integers >= 1");
    }
    spec.ftl.queue_counts.clear();
    for (const JsonValue& item : v->items()) {
      const std::size_t queues = as_index(item, "queues");
      if (queues < 1) spec_error("'queues' entries must be >= 1");
      if (queues > host::kMaxQueues) {
        spec_error("'queues' entries must be <= " +
                   std::to_string(host::kMaxQueues) +
                   " (queue ids are 16-bit)");
      }
      spec.ftl.queue_counts.push_back(queues);
    }
  }
  if (const JsonValue* v = obj.find("arbitrations")) {
    spec.ftl.arbitration_policies = as_string_list(*v, "arbitrations");
  }
  if (const JsonValue* v = obj.find("gc_policies")) {
    spec.ftl.gc_policies = as_string_list(*v, "gc_policies");
  }
  if (const JsonValue* v = obj.find("wear_policies")) {
    spec.ftl.wear_policies = as_string_list(*v, "wear_policies");
  }
  if (const JsonValue* v = obj.find("tuning_policies")) {
    spec.ftl.tuning_policies = as_string_list(*v, "tuning_policies");
  }
  if (const JsonValue* v = obj.find("refresh_policies")) {
    spec.ftl.refresh_policies = as_string_list(*v, "refresh_policies");
  }
  if (const JsonValue* v = obj.find("fail_blocks")) {
    if (!v->is_array() || v->items().empty()) {
      spec_error("'fail_blocks' must be a non-empty array of integers >= 0");
    }
    spec.ftl.fail_blocks.clear();
    for (const JsonValue& item : v->items()) {
      spec.ftl.fail_blocks.push_back(as_u32(item, "fail_blocks"));
    }
  }
  obj.finish();
  check_policies<policy::Gc>(spec.ftl.gc_policies);
  check_policies<policy::Wear>(spec.ftl.wear_policies);
  check_policies<policy::Tuning>(spec.ftl.tuning_policies);
  check_policies<policy::Refresh>(spec.ftl.refresh_policies);
  check_policies<policy::Arbitration>(spec.ftl.arbitration_policies);
}

}  // namespace

std::optional<controller::DispatchConfig> parse_topology(
    const std::string& text) {
  unsigned channels = 0, dies = 0;
  if (std::sscanf(text.c_str(), "%ux%u", &channels, &dies) != 2 ||
      channels == 0 || dies == 0) {
    return std::nullopt;
  }
  return controller::DispatchConfig{channels, dies};
}

void check_ages(const ExperimentSpec& spec, InputNames names) {
  const bool flags = names == InputNames::kFlags;
  const auto check = [&](double age, double limit, const char* flag,
                         const char* key, const char* why) {
    if (age < limit) return;
    std::ostringstream msg;
    if (!flags) msg << "experiment spec: ";
    msg << (flags ? flag : key) << " must be below " << limit
        << " P/E cycles (" << why << "), got " << age;
    throw std::invalid_argument(msg.str());
  };
  const auto array_limit = [](const nand::ArrayConfig& a) {
    return nand::RberModel(a.plan, a.aging, a.ispp, a.variability,
                           a.interference)
        .max_cycles();
  };
  constexpr const char* kArrayWhy =
      "the bit-true array's limit: past it the aging law's RBER outgrows "
      "the widest read-time distribution the model solves for";
  constexpr const char* kLawWhy = "the aging law's RBER reaches 1 there";

  if (spec.mode == ExperimentSpec::Mode::kFtlSweep) {
    // Only the starting wear: what a run adds is not checked here.
    const nand::ArrayConfig& array = spec.ftl.base.die.device.array;
    if (spec.ftl.data_plane) {
      check(spec.ftl.base.initial_pe_cycles, array_limit(array),
            "--ftl-initial-wear", "'initial_pe_cycles'", kArrayWhy);
    } else {
      check(spec.ftl.base.initial_pe_cycles, array.aging.max_cycles(),
            "--ftl-initial-wear", "'initial_pe_cycles'", kLawWhy);
    }
    return;
  }
  // Space mode evaluates, and validates on, the default die.
  const nand::ArrayConfig array =
      core::SubsystemConfig::defaults().device.array;
  check(spec.age_hi, array.aging.max_cycles(), "--ages HI", "'ages.hi'",
        kLawWhy);
  if (spec.mc_replicas == 0) return;
  if (spec.mc_age >= 0.0) {
    check(spec.mc_age, array_limit(array), "--mc-age", "'monte_carlo.age'",
          kArrayWhy);
  } else {
    check(spec.age_hi, array_limit(array),
          "--mc-age (unset, so the last --ages age)",
          "'monte_carlo.age' (unset, so 'ages.hi')", kArrayWhy);
  }
}

ExperimentSpec ExperimentSpec::defaults() {
  ExperimentSpec spec;
  spec.ftl.base.die.device.array.geometry.blocks = 8;
  spec.ftl.base.die.device.array.geometry.pages_per_block = 4;
  spec.ftl.base.initial_pe_cycles = 1e4;
  spec.ftl.base.ftl.pe_cycles_per_erase = 3e4;
  spec.ftl.base.ftl.logical_fraction = 0.6;
  return spec;
}

ExperimentSpec parse_experiment(const JsonValue& root) {
  ExperimentSpec spec = ExperimentSpec::defaults();
  StrictObject obj(root, "the spec");

  const JsonValue* mode = obj.find("mode");
  if (mode == nullptr) {
    spec_error("missing required key 'mode' (\"space\" or \"ftl-sweep\")");
  }
  const std::string& mode_name = as_string(*mode, "mode");
  if (mode_name == "space") {
    spec.mode = ExperimentSpec::Mode::kSpace;
  } else if (mode_name == "ftl-sweep") {
    spec.mode = ExperimentSpec::Mode::kFtlSweep;
  } else {
    spec_error("unknown mode '" + mode_name +
               "'; available: space ftl-sweep");
  }

  if (const JsonValue* v = obj.find("seed")) spec.seed = as_u64(*v, "seed");
  if (const JsonValue* v = obj.find("uber_target")) {
    spec.uber_target = as_number(*v, "uber_target");
    if (spec.uber_target <= 0.0 || spec.uber_target >= 1.0) {
      spec_error("'uber_target' must lie in (0, 1)");
    }
  }
  if (const JsonValue* v = obj.find("point")) {
    spec.point = as_string(*v, "point");
    check_point_name(spec.point);
  }

  // Space-mode sections.
  parse_ages(obj, spec);
  if (const JsonValue* v = obj.find("pareto_only")) {
    spec.pareto_only = as_bool(*v, "pareto_only");
  }
  parse_monte_carlo(obj, spec);

  // FTL-sweep sections.
  parse_geometry(obj, spec);
  if (const JsonValue* v = obj.find("initial_pe_cycles")) {
    spec.ftl.base.initial_pe_cycles = as_number(*v, "initial_pe_cycles");
    if (spec.ftl.base.initial_pe_cycles < 0.0) {
      spec_error("'initial_pe_cycles' must be >= 0");
    }
  }
  parse_ftl(obj, spec);
  parse_workload(obj, spec);
  parse_sweep(obj, spec);

  obj.finish();
  check_ages(spec, InputNames::kSpecKeys);
  return spec;
}

ExperimentSpec parse_experiment_text(const std::string& text) {
  return parse_experiment(JsonValue::parse(text));
}

ExperimentSpec load_experiment(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("cannot open experiment spec " + path);
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return parse_experiment_text(contents.str());
}

std::string run_experiment(const ExperimentSpec& spec, ThreadPool& pool,
                           const std::string& format) {
  if (format != "csv" && format != "json") {
    throw std::invalid_argument("experiment format must be csv or json, got " +
                                format);
  }

  if (spec.mode == ExperimentSpec::Mode::kFtlSweep) {
    // The experiment-level knobs (seed, UBER target, operating point)
    // override the sweep template's own copies, whichever path built
    // the spec.
    FtlSweepSpec ftl = spec.ftl;
    ftl.seed = spec.seed;
    ftl.base.die.controller.reliability.uber_target = spec.uber_target;
    ftl.base.point = make_point(spec.point);
    const FtlSweepResult result = ftl_sweep(ftl, pool);
    if (format == "csv") return ftl_csv(result);
    std::string report = "{\"ftl\":";
    report += ftl_json(result);
    report += "}";
    return report;
  }

  // Configuration-space sweep (+ optional Monte-Carlo validation).
  core::SubsystemConfig subsystem = core::SubsystemConfig::defaults();
  subsystem.controller.reliability.uber_target = spec.uber_target;

  SweepSpec sweep_spec;
  sweep_spec.framework = FrameworkSpec::from(subsystem);
  sweep_spec.ages = log_space(spec.age_lo, spec.age_hi, spec.age_points);

  SweepResult space = sweep_space(sweep_spec, pool);
  if (spec.pareto_only) {
    SweepResult front;
    // Front sizes vary per age, so the filtered rows are no longer an
    // ages x cells_per_age grid; 0 signals the irregular layout.
    front.cells_per_age = 0;
    for (const SweepCell& cell : space.cells) {
      if (cell.pareto) front.cells.push_back(cell);
    }
    space = std::move(front);
  }

  std::vector<WorkloadValidation> validations;
  if (spec.mc_replicas > 0) {
    const double mc_age =
        spec.mc_age >= 0.0 ? spec.mc_age : sweep_spec.ages.back();
    // One root stream per workload, derived serially from the seed so
    // adding a workload never reshuffles the others' replicas.
    Rng workload_seeder(spec.seed);
    for (const std::string& name : spec.mc_workloads) {
      const std::uint64_t workload_seed = workload_seeder.next();
      const std::optional<sim::AccessPattern> workload = make_workload(name);
      if (!workload.has_value()) {
        throw std::invalid_argument("unknown workload " + name);
      }
      MonteCarloSpec mc;
      mc.subsystem = subsystem;
      // Each replica is a 1x1 SSD on the FTL sweep's default die.
      mc.subsystem.device.array.geometry =
          ExperimentSpec::defaults().ftl.base.die.device.array.geometry;
      mc.point = make_point(spec.point);
      mc.pe_cycles = mc_age;
      mc.workload = *workload;
      mc.requests_per_replica = spec.mc_requests;
      mc.replicas = spec.mc_replicas;
      mc.seed = workload_seed;
      validations.push_back(WorkloadValidation{
          workload->label(), mc_age, run_monte_carlo(mc, pool)});
    }
  }

  std::string report;
  if (format == "csv") {
    report = sweep_csv(space);
    if (!validations.empty()) {
      report += "\n";
      report += qos_csv(validations);
    }
  } else {
    report = "{\"sweep\":" + sweep_json(space);
    report += ",\"qos\":" + qos_json(validations);
    report += "}";
  }
  return report;
}

}  // namespace xlf::explore
