#include "src/explore/experiment.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
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

constexpr double kInf = std::numeric_limits<double>::infinity();
// JSON numbers are doubles: only integers up to 2^53 are exact, and a
// cast from a double at or above 2^64 is undefined behaviour.
constexpr double kMaxJsonInteger = 9007199254740992.0;

std::string number_text(double x) {
  if (x == kMaxJsonInteger) return "2^53";
  char buffer[32];
  return {buffer, std::to_chars(buffer, buffer + sizeof buffer, x).ptr};
}

// An input's bounds: lo/hi with open or closed ends; an infinite end
// is unbounded.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;

  bool admits(double x) const {
    return (lo_open ? x > lo : x >= lo) && (hi_open ? x < hi : x <= hi);
  }
  // ">= 1", "> 0", "in [0, 1)"; empty when unbounded.
  std::string text() const {
    std::ostringstream out;
    if (!std::isinf(hi)) {
      out << (lo_open ? "in (" : "in [") << number_text(lo) << ", "
          << number_text(hi) << (hi_open ? ')' : ']');
    } else if (!std::isinf(lo)) {
      out << (lo_open ? "> " : ">= ") << number_text(lo);
    }
    return out.str();
  }
};

constexpr Range at_least(double lo) { return {lo, kInf, false, false}; }
constexpr Range unit(bool lo_open, bool hi_open) {
  return {0.0, 1.0, lo_open, hi_open};
}

// One input in either spelling: the JSON value under a spec key, or
// the text after a flag, with its row's bounds. `name` is the quoted
// dotted key or the flag.
struct Input {
  std::string name;
  const JsonValue* json = nullptr;  // nullptr: a flag's text
  std::string_view text;
  Range range;
};

[[noreturn]] void spec_error(const std::string& what) {
  throw std::invalid_argument("experiment spec: " + what);
}

[[noreturn]] void fail(const Input& in, const std::string& what) {
  if (in.json != nullptr) spec_error(what);
  throw std::invalid_argument(what);
}

// Messages are built by appends or streams: GCC 12 reports a false
// -Wrestrict on "'" + std::string(...) + "'" chains (GCC bug 105651).
std::string quoted(std::string_view text, char quote = '\'') {
  std::string out(1, quote);
  out += text;
  out += quote;
  return out;
}

// The rejected value as the message shows it: a flag's text in single
// quotes, a JSON value as JSON ("null", "object" and "array" by type).
std::string shown(const Input& in) {
  if (in.json == nullptr) return quoted(in.text);
  switch (in.json->type()) {
    case JsonValue::Type::kNumber:
      return number_text(in.json->as_number());
    case JsonValue::Type::kString:
      return quoted(in.json->as_string(), '"');
    case JsonValue::Type::kBool:
      return in.json->as_bool() ? "true" : "false";
    default:
      return in.json->is_array() && in.json->items().empty()
                 ? "[]"
                 : JsonValue::to_string(in.json->type());
  }
}

// "<name> must be <what>[ <range>], got <value>".
[[noreturn]] void bad_value(const Input& in, const char* what,
                            const std::string& range = "") {
  std::ostringstream message;
  message << in.name << " must be " << what << (range.empty() ? "" : " ")
          << range << ", got " << shown(in);
  fail(in, message.str());
}

// A finite number inside the input's range.
double number(const Input& in) {
  double x = 0.0;
  bool ok = false;
  if (in.json != nullptr) {
    ok = in.json->type() == JsonValue::Type::kNumber;
    if (ok) x = in.json->as_number();
  } else {
    const char* end = in.text.data() + in.text.size();
    const std::from_chars_result parsed =
        std::from_chars(in.text.data(), end, x);
    ok = parsed.ec == std::errc() && parsed.ptr == end;
  }
  if (!ok || !std::isfinite(x) || !in.range.admits(x)) {
    bad_value(in, "a number", in.range.text());
  }
  return x;
}

// An unsigned integer inside the input's range, which the type also
// bounds, and JSON's exact integers. A flag reads base 10, or with
// base 0 C literal prefixes as strtoull does: 0x hex, a leading 0 octal.
template <typename T, int kBase = 10>
T integer(const Input& in) {
  static_assert(std::is_unsigned_v<T>);
  constexpr double kTypeMax =
      static_cast<double>(std::numeric_limits<T>::max());
  Range range = in.range;
  range.lo = std::max(range.lo, 0.0);
  if (kTypeMax < kMaxJsonInteger) range.hi = std::min(range.hi, kTypeMax);
  const bool literals = kBase == 0 && in.json == nullptr;
  T value{};
  bool ok = false;
  if (in.json != nullptr) {
    range.hi = std::min(range.hi, kMaxJsonInteger);
    const double x = in.json->type() == JsonValue::Type::kNumber
                         ? in.json->as_number()
                         : -1.0;
    ok = x == std::floor(x) && range.admits(x);
    if (ok) value = static_cast<T>(x);
  } else {
    std::string_view digits = in.text;
    int base = kBase;
    if (base == 0) {
      base = 10;
      if (digits.size() > 2 &&
          (digits.starts_with("0x") || digits.starts_with("0X"))) {
        digits.remove_prefix(2);
        base = 16;
      } else if (digits.size() > 1 && digits[0] == '0') {
        digits.remove_prefix(1);
        base = 8;
      }
    }
    const char* end = digits.data() + digits.size();
    const std::from_chars_result parsed =
        std::from_chars(digits.data(), end, value, base);
    ok = parsed.ec == std::errc() && parsed.ptr == end &&
         range.admits(static_cast<double>(value));
  }
  if (!ok) {
    bad_value(in, "an integer",
              range.text() + (literals ? " (decimal, 0x hex or 0 octal)" : ""));
  }
  return value;
}

// JSON true or false; a switch flag turns its bool on.
bool boolean(const Input& in) {
  if (in.json == nullptr) return true;
  if (in.json->type() != JsonValue::Type::kBool) {
    bad_value(in, "true or false");
  }
  return in.json->as_bool();
}

std::string_view text_of(const Input& in) {
  if (in.json == nullptr) return in.text;
  if (in.json->type() != JsonValue::Type::kString) bad_value(in, "a string");
  return in.json->as_string();
}

// The position of the input's name in `names`, or policy::parse's
// error shape: "unknown <kind> '<name>'; available: <names>".
template <std::size_t N>
std::size_t pick(const Input& in, const char* kind,
                 const std::array<std::string_view, N>& names) {
  const std::string_view name = text_of(in);
  for (std::size_t i = 0; i < N; ++i) {
    if (names[i] == name) return i;
  }
  std::ostringstream message;
  message << "unknown " << kind << " '" << name << "'; available:";
  for (const std::string_view known : names) message << ' ' << known;
  fail(in, message.str());
}

// A non-empty JSON array, or a comma list after a flag; `item` reads
// each entry under the list's name and bounds.
template <typename Read>
auto list(const Input& in, Read item) {
  std::vector<decltype(item(in))> out;
  if (in.json == nullptr) {
    std::string_view rest = in.text;
    for (std::size_t comma = 0; comma != std::string_view::npos;) {
      comma = rest.find(',');
      const std::string_view part = rest.substr(0, comma);
      out.push_back(item({in.name, nullptr, part, in.range}));
      rest.remove_prefix(comma == std::string_view::npos ? rest.size()
                                                         : comma + 1);
    }
    return out;
  }
  if (!in.json->is_array() || in.json->items().empty()) {
    bad_value(in, "a non-empty array");
  }
  for (const JsonValue& value : in.json->items()) {
    out.push_back(item({in.name, &value, {}, in.range}));
  }
  return out;
}

// Policy names stay strings in the sweep spec; policy::parse checks
// each one here, at the input edge, with its own message.
template <class P>
std::vector<std::string> policies(const Input& in) {
  return list(in, [](const Input& item) {
    std::string name(text_of(item));
    (void)policy::parse<P>(name);
    return name;
  });
}

// "CxD": channels x dies per channel, both >= 1, e.g. "2x1".
controller::DispatchConfig topology(const Input& in) {
  const std::string_view text = text_of(in);
  const auto whole = [](std::string_view digits, std::uint32_t& out) {
    const char* end = digits.data() + digits.size();
    const std::from_chars_result parsed =
        std::from_chars(digits.data(), end, out);
    return parsed.ec == std::errc() && parsed.ptr == end && out >= 1;
  };
  const std::size_t x = text.find('x');
  controller::DispatchConfig out{0, 0};
  if (x == std::string_view::npos || !whole(text.substr(0, x), out.channels) ||
      !whole(text.substr(x + 1), out.dies_per_channel)) {
    bad_value(in, "CxD (channels x dies per channel, each >= 1)");
  }
  return out;
}

constexpr std::array<std::string_view, 2> kModes{"space", "ftl-sweep"};
constexpr std::array<std::string_view, 3> kPoints{"baseline", "min-uber",
                                                  "max-read"};
constexpr std::array<std::string_view, 2> kDataPlanes{"bit-true", "meta"};
// The workload names. AccessPattern's defaults are theirs: mixed
// reads 70 % of the time, streaming runs at 8 MiB/s.
constexpr std::array<std::string_view, 5> kWorkloads{
    "sequential-read", "random-read", "write-burst", "mixed", "streaming"};
constexpr std::array<sim::Pattern, 5> kPatterns{
    sim::Pattern::kSequentialRead, sim::Pattern::kRandomRead,
    sim::Pattern::kWriteBurst, sim::Pattern::kMixed, sim::Pattern::kStreaming};

core::OperatingPoint make_point(const std::string& name) {
  if (name == "min-uber") return core::OperatingPoint::min_uber();
  if (name == "max-read") return core::OperatingPoint::max_read();
  return core::OperatingPoint::baseline();
}

// One experiment input. `key` is its dotted spec key (nullptr for
// --ages, which sets three keys through their rows), `flag` its
// command-line spelling (nullptr: spec only), `arg` the flag's
// argument (nullptr: a switch), `range` its bounds, and `apply` reads
// the input into the field the row sets.
struct Row {
  const char* key;
  const char* flag;
  const char* arg;
  const char* help;
  Range range;
  void (*apply)(ExperimentSpec&, const Input&);
};

// The row whose `field` (&Row::key or &Row::flag) is `name`, or
// nullptr.
const Row* find_row(const char* Row::*field, std::string_view name);

using S = ExperimentSpec;
using I = Input;
using std::size_t;
using std::uint32_t;
constexpr Range kAny{};

// The order parse_experiment applies the rows in, and the order of the
// "known keys" lists and of the usage.
const Row kRows[] = {
    {"mode", "--ftl-sweep", nullptr, "\"ftl-sweep\" (default \"space\")", kAny,
     [](S& s, const I& in) {
       // The switch selects the FTL sweep; the key names either mode.
       s.mode = in.json == nullptr ? S::Mode::kFtlSweep
                                   : S::Mode(pick(in, "mode", kModes));
     }},
    {"seed", "--seed", "S", "of every random stream", kAny,
     [](S& s, const I& in) { s.seed = integer<std::uint64_t, 0>(in); }},
    {"uber_target", "--uber-target", "X", "of the ECC schedule (1e-11)",
     unit(true, true),
     [](S& s, const I& in) { s.uber_target = number(in); }},
    {"point", "--point", "NAME", "baseline|min-uber|max-read (baseline)", kAny,
     [](S& s, const I& in) {
       s.point = kPoints[pick(in, "operating point", kPoints)];
     }},
    // --- space mode ------------------------------------------------------
    {"ages.lo", nullptr, nullptr, nullptr, kAny,
     [](S& s, const I& in) { s.age_lo = number(in); }},
    {"ages.hi", nullptr, nullptr, nullptr, kAny,
     [](S& s, const I& in) { s.age_hi = number(in); }},
    {"ages.points", nullptr, nullptr, nullptr, kAny,
     [](S& s, const I& in) { s.age_points = integer<size_t>(in); }},
    {nullptr, "--ages", "LO:HI:POINTS", "ages.lo .hi .points (1:1e6:13)", kAny,
     [](S& s, const I& in) {
       const std::string_view text = in.text;
       const size_t lo = text.find(':');
       const size_t hi = lo == text.npos ? lo : text.find(':', lo + 1);
       if (hi == text.npos || text.find(':', hi + 1) != text.npos) {
         bad_value(in, "LO:HI:POINTS");
       }
       const auto part = [&](const char* key, const char* name,
                             std::string_view part) {
         const Row* row = find_row(&Row::key, key);
         row->apply(s, {name, nullptr, part, row->range});
       };
       part("ages.lo", "--ages LO", text.substr(0, lo));
       part("ages.hi", "--ages HI", text.substr(lo + 1, hi - lo - 1));
       part("ages.points", "--ages POINTS", text.substr(hi + 1));
     }},
    {"pareto_only", "--pareto-only", nullptr, "(print the front only)", kAny,
     [](S& s, const I& in) { s.pareto_only = boolean(in); }},
    {"monte_carlo.replicas", "--mc-replicas", "R", "per workload (0)", kAny,
     [](S& s, const I& in) { s.mc_replicas = integer<size_t>(in); }},
    {"monte_carlo.requests", "--mc-requests", "N", "per replica (32)",
     at_least(1),
     [](S& s, const I& in) { s.mc_requests = integer<size_t>(in); }},
    {"monte_carlo.age", "--mc-age", "CYCLES", "(default: ages.hi)",
     at_least(0), [](S& s, const I& in) { s.mc_age = number(in); }},
    {"monte_carlo.workloads", "--workloads", "LIST",
     "among sequential-read,\nrandom-read,write-burst,mixed,streaming (all)",
     kAny, [](S& s, const I& in) {
       s.mc_workloads = list(in, [](const I& item) {
         return std::string(kWorkloads[pick(item, "workload", kWorkloads)]);
       });
     }},
    // --- ftl-sweep mode --------------------------------------------------
    {"data_plane", "--ftl-data-plane", "M", "bit-true or meta (bit-true)",
     kAny, [](S& s, const I& in) {
       s.ftl.data_plane = pick(in, "data plane", kDataPlanes) == 0;
     }},
    {"geometry.blocks", "--ftl-blocks", "B", "per die (8)", at_least(1),
     [](S& s, const I& in) {
       s.ftl.base.die.device.array.geometry.blocks = integer<uint32_t>(in);
     }},
    {"geometry.pages_per_block", "--ftl-pages", "P", "(4)", at_least(1),
     [](S& s, const I& in) {
       s.ftl.base.die.device.array.geometry.pages_per_block =
           integer<uint32_t>(in);
     }},
    {"initial_pe_cycles", "--ftl-initial-wear", "C", "uniform start (1e4)",
     at_least(0),
     [](S& s, const I& in) { s.ftl.base.initial_pe_cycles = number(in); }},
    {"ftl.pe_cycles_per_erase", "--ftl-wear-per-erase", "C", "(3e4)",
     at_least(1), [](S& s, const I& in) {
       s.ftl.base.ftl.pe_cycles_per_erase = number(in);
     }},
    {"ftl.logical_fraction", "--ftl-logical-fraction", "F", "(0.6)",
     unit(true, true), [](S& s, const I& in) {
       s.ftl.base.ftl.logical_fraction = number(in);
     }},
    {"ftl.gc_free_blocks", nullptr, nullptr, nullptr, kAny,
     [](S& s, const I& in) {
       s.ftl.base.ftl.gc_free_blocks = integer<uint32_t>(in);
     }},
    {"ftl.static_wl_spread", nullptr, nullptr, nullptr, kAny,
     [](S& s, const I& in) {
       s.ftl.base.ftl.static_wl_spread = integer<uint32_t>(in);
     }},
    {"ftl.scrub_retention_hours", nullptr, nullptr, nullptr, at_least(0),
     [](S& s, const I& in) {
       s.ftl.base.ftl.scrub_retention_hours = number(in);
     }},
    {"workload.requests", "--ftl-requests", "N", "per combo (200)",
     at_least(1),
     [](S& s, const I& in) { s.ftl.requests = integer<size_t>(in); }},
    {"workload.read_fraction", "--ftl-read-fraction", "F", "(0.3)",
     unit(false, true),
     [](S& s, const I& in) { s.ftl.read_fraction = number(in); }},
    {"workload.hot_fraction", "--ftl-hot-fraction", "F", "of the LPAs (0.25)",
     unit(true, false),
     [](S& s, const I& in) { s.ftl.hot_fraction = number(in); }},
    {"workload.hot_write_fraction", "--ftl-hot-writes", "F", "(0.85)",
     unit(false, false),
     [](S& s, const I& in) { s.ftl.hot_write_fraction = number(in); }},
    {"workload.trim_fraction", "--ftl-trim-fraction", "F", "of non-reads (0)",
     unit(false, true),
     [](S& s, const I& in) { s.ftl.trim_fraction = number(in); }},
    {"workload.queue_weights", "--ftl-queue-weights", "LIST",
     "queue 0 first (1 each)", {0.0, kInf, true, false},
     [](S& s, const I& in) { s.ftl.queue_weights = list(in, number); }},
    {"workload.prepopulate", nullptr, nullptr, nullptr, kAny,
     [](S& s, const I& in) { s.ftl.prepopulate = boolean(in); }},
    {"sweep.topologies", "--ftl-topologies", "LIST", "CxD (1x1,2x1)", kAny,
     [](S& s, const I& in) { s.ftl.topologies = list(in, topology); }},
    {"sweep.queue_depths", "--ftl-qd", "LIST", "(1,4)", at_least(1),
     [](S& s, const I& in) { s.ftl.queue_depths = list(in, integer<size_t>); }},
    {"sweep.queues", "--ftl-queues", "LIST", "(1)",
     {1.0, static_cast<double>(host::kMaxQueues), false, false},
     [](S& s, const I& in) { s.ftl.queue_counts = list(in, integer<size_t>); }},
    {"sweep.arbitrations", "--ftl-arbitration", "LIST", "(round-robin)", kAny,
     [](S& s, const I& in) {
       s.ftl.arbitration_policies = policies<policy::Arbitration>(in);
     }},
    {"sweep.gc_policies", "--ftl-gc", "LIST", "(greedy,cost-benefit)", kAny,
     [](S& s, const I& in) { s.ftl.gc_policies = policies<policy::Gc>(in); }},
    {"sweep.wear_policies", "--ftl-wear", "LIST", "(dynamic)", kAny,
     [](S& s, const I& in) {
       s.ftl.wear_policies = policies<policy::Wear>(in);
     }},
    {"sweep.tuning_policies", "--ftl-tuning", "LIST", "(model_based)", kAny,
     [](S& s, const I& in) {
       s.ftl.tuning_policies = policies<policy::Tuning>(in);
     }},
    {"sweep.refresh_policies", "--ftl-refresh", "LIST", "(none)", kAny,
     [](S& s, const I& in) {
       s.ftl.refresh_policies = policies<policy::Refresh>(in);
     }},
    {"sweep.fail_blocks", "--ftl-fail-blocks", "LIST", "grown bad (0)", kAny,
     [](S& s, const I& in) {
       s.ftl.fail_blocks = list(in, integer<uint32_t>);
     }},
};

const Row* find_row(const char* Row::*field, std::string_view name) {
  for (const Row& row : kRows) {
    if (row.*field != nullptr && row.*field == name) return &row;
  }
  return nullptr;
}

// Rejects the first member, in key order, that no row names under
// `prefix` ("" or "section."), so a typo ("qeue_depths") fails loudly
// instead of running the default.
void reject_unknown(const JsonValue& object, const std::string& prefix) {
  const std::string where =
      prefix.empty() ? "the spec" : prefix.substr(0, prefix.size() - 1);
  if (!object.is_object()) spec_error(quoted(where) + " must be an object");
  std::vector<std::string_view> known;  // in table order
  for (const Row& row : kRows) {
    if (row.key == nullptr || !std::string_view(row.key).starts_with(prefix)) {
      continue;
    }
    std::string_view key = std::string_view(row.key).substr(prefix.size());
    key = key.substr(0, key.find('.'));
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      known.push_back(key);
    }
  }
  for (const auto& [key, value] : object.members()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::ostringstream message;
      message << "unknown key '" << key << "' in " << where << "; known keys:";
      for (const std::string_view name : known) message << ' ' << name;
      spec_error(message.str());
    }
    if (prefix.empty() && find_row(&Row::key, key) == nullptr) {
      reject_unknown(value, key + ".");
    }
  }
}

// The value under a dotted key, or nullptr when absent.
const JsonValue* member(const JsonValue& object, std::string_view key) {
  const std::size_t dot = key.find('.');
  const auto found = object.members().find(std::string(key.substr(0, dot)));
  if (found == object.members().end()) return nullptr;
  if (dot == std::string_view::npos) return &found->second;
  return member(found->second, key.substr(dot + 1));
}

}  // namespace

void check_ages(const ExperimentSpec& spec, InputNames names) {
  const bool flags = names == InputNames::kFlags;
  const char* prefix = flags ? "" : "experiment spec: ";
  if (spec.age_points < 2 || !(spec.age_lo > 0.0) ||
      !(spec.age_hi > spec.age_lo)) {
    std::ostringstream msg;
    msg << prefix << "invalid " << (flags ? "--ages" : "ages")
        << " grid lo=" << spec.age_lo << " hi=" << spec.age_hi
        << " points=" << spec.age_points
        << " (need lo > 0, hi > lo, points >= 2)";
    throw std::invalid_argument(msg.str());
  }
  const auto check = [&](double age, double limit, const char* flag,
                         const char* key, const char* why) {
    if (age < limit) return;
    std::ostringstream msg;
    msg << prefix << (flags ? flag : key) << " must be below " << limit
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

void check_ftl_shape(const ExperimentSpec& spec, InputNames names) {
  if (spec.mode != ExperimentSpec::Mode::kFtlSweep) return;
  const bool flags = names == InputNames::kFlags;
  const nand::Geometry& geometry = spec.ftl.base.die.device.array.geometry;
  const std::uint32_t free_blocks = spec.ftl.base.ftl.gc_free_blocks;
  std::ostringstream msg;
  msg << (flags ? "" : "experiment spec: ");
  if (std::uint64_t{free_blocks} + 2 >= geometry.blocks) {
    if (flags) {
      msg << "--ftl-blocks must be above gc_free_blocks + 2 = "
          << free_blocks + 2ull;
    } else {
      msg << "'ftl.gc_free_blocks' must be below 'geometry.blocks' - 2";
    }
    msg << " (a die holds the GC free-block floor plus its two write "
           "frontiers), got "
        << (flags ? geometry.blocks : free_blocks);
    if (!flags) msg << " with 'geometry.blocks' " << geometry.blocks;
    throw std::invalid_argument(msg.str());
  }
  const std::uint64_t die_pages =
      std::uint64_t{geometry.blocks} * geometry.pages_per_block;
  for (const controller::DispatchConfig& topology : spec.ftl.topologies) {
    const std::uint64_t dies =
        std::uint64_t{topology.channels} * topology.dies_per_channel;
    if (dies <= ftl::kUnmapped / std::max<std::uint64_t>(die_pages, 1)) {
      continue;
    }
    msg << (flags ? "--ftl-topologies" : "'sweep.topologies'") << " entry "
        << topology.channels << 'x' << topology.dies_per_channel
        << " makes " << dies << " dies of " << die_pages
        << " pages, past the FTL's 32-bit page space of " << ftl::kUnmapped
        << " pages";
    throw std::invalid_argument(msg.str());
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

int flag_arity(std::string_view flag) {
  const Row* row = find_row(&Row::flag, flag);
  if (row == nullptr) return -1;
  return row->arg == nullptr ? 0 : 1;
}

void apply_flag(ExperimentSpec& spec, std::string_view flag,
                std::string_view text) {
  const Row* row = find_row(&Row::flag, flag);
  if (row == nullptr) {
    std::string message = "unknown flag ";
    message += quoted(flag);
    throw std::invalid_argument(message);
  }
  row->apply(spec, {std::string(flag), nullptr, text, row->range});
}

std::string flag_usage() {
  constexpr std::size_t kHelpColumn = 26;
  std::string out;
  for (const Row& row : kRows) {
    if (row.flag == nullptr) continue;
    std::string line = "  ";
    line += row.flag;
    if (row.arg != nullptr) {
      line += ' ';
      line += row.arg;
    }
    line.resize(std::max(line.size() + 2, kHelpColumn), ' ');
    if (row.key != nullptr) {
      line += row.key;
      line += ' ';
    }
    for (const char* c = row.help; *c != '\0'; ++c) {
      line += *c;
      if (*c == '\n') line.append(kHelpColumn, ' ');
    }
    out += line;
    out += '\n';
  }
  return out;
}

ExperimentSpec parse_experiment(const JsonValue& root) {
  reject_unknown(root, "");
  if (!root.has("mode")) {
    spec_error("missing required key 'mode' (\"space\" or \"ftl-sweep\")");
  }
  ExperimentSpec spec = ExperimentSpec::defaults();
  for (const Row& row : kRows) {
    if (row.key == nullptr) continue;
    if (const JsonValue* value = member(root, row.key)) {
      row.apply(spec, {quoted(row.key), value, {}, row.range});
    }
  }
  check_ages(spec, InputNames::kSpecKeys);
  check_ftl_shape(spec, InputNames::kSpecKeys);
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
      const auto known = std::find(kWorkloads.begin(), kWorkloads.end(), name);
      if (known == kWorkloads.end()) {
        throw std::invalid_argument("unknown workload " + name);
      }
      const sim::AccessPattern workload{kPatterns[known - kWorkloads.begin()]};
      MonteCarloSpec mc;
      mc.subsystem = subsystem;
      // Each replica is a 1x1 SSD on the FTL sweep's default die.
      mc.subsystem.device.array.geometry =
          ExperimentSpec::defaults().ftl.base.die.device.array.geometry;
      mc.point = make_point(spec.point);
      mc.pe_cycles = mc_age;
      mc.workload = workload;
      mc.requests_per_replica = spec.mc_requests;
      mc.replicas = spec.mc_replicas;
      mc.seed = workload_seed;
      validations.push_back(WorkloadValidation{
          workload.label(), mc_age, run_monte_carlo(mc, pool)});
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
