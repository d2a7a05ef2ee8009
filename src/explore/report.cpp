#include "src/explore/report.hpp"

#include <cstdio>

namespace xlf::explore {
namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// One field table per report drives both the CSV and the JSON
// emitters, so the two formats cannot drift apart. `text` marks
// fields JSON must quote.
template <class Row>
struct Field {
  const char* name;
  bool text;
  std::string (*value)(const Row&);
};

template <class Row, std::size_t N>
std::string table_csv(const Field<Row> (&fields)[N],
                      const std::vector<Row>& rows) {
  std::string out;
  for (std::size_t f = 0; f < N; ++f) {
    if (f > 0) out += ",";
    out += fields[f].name;
  }
  out += "\n";
  for (const Row& row : rows) {
    for (std::size_t f = 0; f < N; ++f) {
      if (f > 0) out += ",";
      out += fields[f].value(row);
    }
    out += "\n";
  }
  return out;
}

template <class Row, std::size_t N>
std::string table_json(const Field<Row> (&fields)[N],
                       const std::vector<Row>& rows) {
  std::string out = "[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ",";
    out += "{";
    for (std::size_t f = 0; f < N; ++f) {
      if (f > 0) out += ",";
      out += "\"";
      out += fields[f].name;
      out += "\":";
      // Appends, not operator+ chains: GCC 12's -Wrestrict (PR 105651)
      // false-fires on const char* + std::string temporaries.
      const std::string value = fields[f].value(rows[r]);
      if (fields[f].text) {
        out += "\"";
        out += value;
        out += "\"";
      } else if (value == "nan" || value == "-nan" || value == "inf" ||
                 value == "-inf") {
        // Unobserved statistics (e.g. the max latency of a
        // zero-request stream) print as NaN in CSV; JSON has no NaN
        // literal, so they render as null.
        out += "null";
      } else {
        out += value;
      }
    }
    out += "}";
  }
  out += "]";
  return out;
}

const Field<SweepCell> kCellFields[] = {
    {"pe_cycles", false,
     [](const SweepCell& c) { return num(c.metrics.pe_cycles); }},
    {"algo", true,
     [](const SweepCell& c) {
       return std::string(nand::to_string(c.metrics.algo));
     }},
    {"t", false, [](const SweepCell& c) { return std::to_string(c.metrics.t); }},
    {"rber", false, [](const SweepCell& c) { return num(c.metrics.rber); }},
    {"log10_uber", false,
     [](const SweepCell& c) { return num(c.metrics.log10_uber); }},
    {"read_latency_us", false,
     [](const SweepCell& c) { return num(c.metrics.read_latency.micros()); }},
    {"write_latency_us", false,
     [](const SweepCell& c) { return num(c.metrics.write_latency.micros()); }},
    {"read_mib_s", false,
     [](const SweepCell& c) { return num(c.metrics.read_throughput.mib()); }},
    {"write_mib_s", false,
     [](const SweepCell& c) { return num(c.metrics.write_throughput.mib()); }},
    {"nand_power_mw", false,
     [](const SweepCell& c) {
       return num(c.metrics.nand_program_power.milliwatts());
     }},
    {"ecc_power_mw", false,
     [](const SweepCell& c) {
       return num(c.metrics.ecc_decode_power.milliwatts());
     }},
    {"total_power_mw", false,
     [](const SweepCell& c) {
       return num(c.metrics.total_power().milliwatts());
     }},
    // "true"/"false" are valid bare JSON and unambiguous CSV.
    {"pareto", false,
     [](const SweepCell& c) { return std::string(c.pareto ? "true" : "false"); }},
};

const Field<WorkloadValidation> kQosFields[] = {
    {"workload", true, [](const WorkloadValidation& v) { return v.workload; }},
    {"pe_cycles", false,
     [](const WorkloadValidation& v) { return num(v.pe_cycles); }},
    {"replicas", false,
     [](const WorkloadValidation& v) { return std::to_string(v.result.replicas); }},
    {"reads", false,
     [](const WorkloadValidation& v) {
       return std::to_string(v.result.merged.reads);
     }},
    {"writes", false,
     [](const WorkloadValidation& v) {
       return std::to_string(v.result.merged.writes);
     }},
    {"uncorrectable", false,
     [](const WorkloadValidation& v) {
       return std::to_string(v.result.merged.uncorrectable);
     }},
    {"data_mismatches", false,
     [](const WorkloadValidation& v) {
       return std::to_string(v.result.merged.data_mismatches);
     }},
    {"qos_misses", false,
     [](const WorkloadValidation& v) {
       return std::to_string(v.result.merged.qos_misses);
     }},
    {"uncorrectable_page_rate", false,
     [](const WorkloadValidation& v) {
       return num(v.result.uncorrectable_page_rate());
     }},
    {"read_latency_mean_us", false,
     [](const WorkloadValidation& v) {
       return num(v.result.merged.read_latency.mean() * 1e6);
     }},
    {"read_latency_max_us", false,
     [](const WorkloadValidation& v) {
       return num(v.result.merged.read_latency.max() * 1e6);
     }},
    {"write_latency_mean_us", false,
     [](const WorkloadValidation& v) {
       return num(v.result.merged.write_latency.mean() * 1e6);
     }},
    {"write_latency_max_us", false,
     [](const WorkloadValidation& v) {
       return num(v.result.merged.write_latency.max() * 1e6);
     }},
    {"simulated_seconds", false,
     [](const WorkloadValidation& v) {
       return num(v.result.merged.elapsed.value());
     }},
};

// ';'-joined per-queue mean of one latency series, in microseconds —
// one formatter for both per-queue columns so they cannot diverge.
std::string joined_queue_means(const FtlSweepRow& r,
                               RunningStats host::QueueStats::*series) {
  std::string out;
  for (std::size_t q = 0; q < r.stats.queue_stats.size(); ++q) {
    if (q > 0) out += ";";
    out += num((r.stats.queue_stats[q].*series).mean() * 1e6);
  }
  return out;
}

const Field<FtlSweepRow> kFtlFields[] = {
    {"channels", false,
     [](const FtlSweepRow& r) { return std::to_string(r.channels); }},
    {"dies_per_channel", false,
     [](const FtlSweepRow& r) { return std::to_string(r.dies_per_channel); }},
    {"queue_depth", false,
     [](const FtlSweepRow& r) { return std::to_string(r.queue_depth); }},
    {"gc_policy", true,
     [](const FtlSweepRow& r) { return r.gc_policy; }},
    {"wear_policy", true,
     [](const FtlSweepRow& r) { return r.wear_policy; }},
    {"tuning_policy", true,
     [](const FtlSweepRow& r) { return r.tuning_policy; }},
    {"refresh_policy", true,
     [](const FtlSweepRow& r) { return r.refresh_policy; }},
    {"host_writes", false,
     [](const FtlSweepRow& r) { return std::to_string(r.stats.writes); }},
    {"host_reads", false,
     [](const FtlSweepRow& r) { return std::to_string(r.stats.reads); }},
    {"write_amplification", false,
     [](const FtlSweepRow& r) { return num(r.stats.write_amplification); }},
    {"gc_relocations", false,
     [](const FtlSweepRow& r) {
       return std::to_string(r.stats.gc_relocations);
     }},
    {"erases", false,
     [](const FtlSweepRow& r) { return std::to_string(r.stats.erases); }},
    {"wl_swaps", false,
     [](const FtlSweepRow& r) { return std::to_string(r.stats.wl_swaps); }},
    {"refresh_blocks", false,
     [](const FtlSweepRow& r) {
       return std::to_string(r.stats.refresh_blocks);
     }},
    {"refresh_relocations", false,
     [](const FtlSweepRow& r) {
       return std::to_string(r.stats.refresh_relocations);
     }},
    {"uncorrectable", false,
     [](const FtlSweepRow& r) {
       return std::to_string(r.stats.uncorrectable);
     }},
    {"data_mismatches", false,
     [](const FtlSweepRow& r) {
       return std::to_string(r.stats.data_mismatches);
     }},
    {"min_t", false,
     [](const FtlSweepRow& r) { return std::to_string(r.stats.min_t_used); }},
    {"max_t", false,
     [](const FtlSweepRow& r) { return std::to_string(r.stats.max_t_used); }},
    {"wear_min", false,
     [](const FtlSweepRow& r) { return num(r.stats.wear_min); }},
    {"wear_max", false,
     [](const FtlSweepRow& r) { return num(r.stats.wear_max); }},
    {"read_latency_mean_us", false,
     [](const FtlSweepRow& r) {
       return num(r.stats.read_latency.mean() * 1e6);
     }},
    {"read_latency_max_us", false,
     [](const FtlSweepRow& r) {
       return num(r.stats.read_latency.max() * 1e6);
     }},
    {"write_latency_mean_us", false,
     [](const FtlSweepRow& r) {
       return num(r.stats.write_latency.mean() * 1e6);
     }},
    {"write_latency_max_us", false,
     [](const FtlSweepRow& r) {
       return num(r.stats.write_latency.max() * 1e6);
     }},
    {"die_util_min", false,
     [](const FtlSweepRow& r) { return num(r.stats.die_util_min()); }},
    {"die_util_mean", false,
     [](const FtlSweepRow& r) { return num(r.stats.die_util_mean()); }},
    {"die_util_max", false,
     [](const FtlSweepRow& r) { return num(r.stats.die_util_max()); }},
    {"gc_busy_s", false,
     [](const FtlSweepRow& r) { return num(r.stats.gc_busy.value()); }},
    {"simulated_seconds", false,
     [](const FtlSweepRow& r) { return num(r.stats.elapsed.value()); }},
    // Multi-queue host-interface columns (appended after the
    // pre-redesign set, whose bytes the 1-queue round-robin
    // degenerate case reproduces exactly).
    {"queues", false,
     [](const FtlSweepRow& r) { return std::to_string(r.queues); }},
    {"arbitration", true,
     [](const FtlSweepRow& r) { return r.arbitration; }},
    {"trims", false,
     [](const FtlSweepRow& r) { return std::to_string(r.stats.trims); }},
    {"trimmed_pages", false,
     [](const FtlSweepRow& r) {
       return std::to_string(r.stats.trimmed_pages);
     }},
    {"flushes", false,
     [](const FtlSweepRow& r) { return std::to_string(r.stats.flushes); }},
    // Per-queue mean latency, queue 0 first, ';'-separated (CSV-safe;
    // a quoted string in JSON). 0 for a queue that completed no
    // command of that type, matching the global latency columns.
    {"per_queue_write_mean_us", true,
     [](const FtlSweepRow& r) {
       return joined_queue_means(r, &host::QueueStats::write_latency);
     }},
    {"per_queue_read_mean_us", true,
     [](const FtlSweepRow& r) {
       return joined_queue_means(r, &host::QueueStats::read_latency);
     }},
    // Recovery / fault-injection columns (appended last, preserving
    // the byte-prefix of older reports): injected fail count, blocks
    // actually retired, and the clean-shutdown remount audit's
    // mismatch count (0 = every stored LPA read back bit-true after
    // rebuild_from_oob).
    {"fail_blocks", false,
     [](const FtlSweepRow& r) { return std::to_string(r.fail_blocks); }},
    {"bad_blocks", false,
     [](const FtlSweepRow& r) { return std::to_string(r.bad_blocks); }},
    {"rebuild_mismatches", false,
     [](const FtlSweepRow& r) {
       return std::to_string(r.rebuild_mismatches);
     }},
};

}  // namespace

std::string sweep_csv(const SweepResult& result) {
  return table_csv(kCellFields, result.cells);
}

std::string sweep_json(const SweepResult& result) {
  std::string out = "{\"cells_per_age\":";
  out += std::to_string(result.cells_per_age);
  out += ",\"space\":";
  out += table_json(kCellFields, result.cells);
  out += "}";
  return out;
}

std::string qos_csv(const std::vector<WorkloadValidation>& validations) {
  return table_csv(kQosFields, validations);
}

std::string qos_json(const std::vector<WorkloadValidation>& validations) {
  return table_json(kQosFields, validations);
}

std::string ftl_csv(const FtlSweepResult& result) {
  return table_csv(kFtlFields, result.rows);
}

std::string ftl_json(const FtlSweepResult& result) {
  return table_json(kFtlFields, result.rows);
}

}  // namespace xlf::explore
