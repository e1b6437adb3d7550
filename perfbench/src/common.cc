#include "common.h"

#include <charconv>

namespace perfbench {

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ec == std::errc() ? ptr : buf);
}

void JsonObject::Str(std::string_view key, std::string_view v) {
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') {
      quoted += '\\';
      quoted += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      quoted += ' ';
    } else {
      quoted += c;
    }
  }
  Raw(key, quoted + "\"");
}

void JsonObject::Raw(std::string_view key, std::string_view json) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"";
  body_ += key;
  body_ += "\": ";
  body_ += json;
}

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kSum: return "SUM";
    case Verb::kAvg: return "AVG";
    case Verb::kPoint: return "POINT";
    case Verb::kSumBound: return "SUMBOUND";
    case Verb::kError: return "ERROR";
    case Verb::kQuantile: return "QUANTILE";
    case Verb::kDistinct: return "DISTINCT";
    case Verb::kCount: return "COUNT";
    case Verb::kAppend: return "APPEND";
    case Verb::kBatchAppend: return "BATCH_APPEND";
  }
  return "?";
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all;

    WorkloadSpec ro;
    ro.name = "read_only";
    ro.reader_conns = 4;
    ro.streams_per_reader = 2;
    ro.fill_batch = 256;
    ro.fill_binary = true;
    ro.write_values = 64;
    ro.write_binary = true;
    ro.write_phase_after_reads = true;
    ro.materialize = true;
    ro.reads = {Verb::kSum,   Verb::kAvg,      Verb::kPoint,
                Verb::kSumBound, Verb::kError, Verb::kQuantile,
                Verb::kDistinct, Verb::kCount};
    all.push_back(ro);

    WorkloadSpec raw;
    raw.name = "read_after_write";
    raw.writer_conns = 2;
    raw.streams_per_writer = 8;
    raw.fill_batch = 256;
    raw.fill_binary = true;
    raw.write_values = 4;
    raw.read_after_each_write = true;
    raw.reads = {Verb::kSum, Verb::kAvg, Verb::kPoint, Verb::kSumBound,
                 Verb::kError};
    all.push_back(raw);

    WorkloadSpec dm;
    dm.name = "durable_mixed";
    dm.server_threads = 1;
    dm.writer_conns = 2;
    dm.streams_per_writer = 3;
    dm.reader_conns = 1;
    dm.fill_values = 1024;
    dm.fill_batch = 256;
    dm.fill_binary = true;
    dm.write_values = 64;
    dm.write_binary = true;
    dm.wal = true;
    dm.reads = {Verb::kCount, Verb::kQuantile, Verb::kDistinct};
    all.push_back(dm);
    return all;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
