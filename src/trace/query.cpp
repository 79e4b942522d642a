#include "trace/query.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace shep {

namespace {

/// Resolves a cell id to its metadata within one file's embedded table.
const TraceCellInfo& CellInfo(const TraceShardFile& file, std::uint64_t cell) {
  for (const TraceCellInfo& info : file.cells) {
    if (info.cell == cell) return info;
  }
  SHEP_REQUIRE(false, "trace record references a cell the file does not "
                      "declare: " +
                          std::to_string(cell));
  return file.cells.front();  // unreachable.
}

bool MatchesCell(const TraceQuery& query, const TraceCellInfo& info) {
  if (!query.site.empty() && info.site_code != query.site) return false;
  if (!query.predictor.empty() && info.predictor_label != query.predictor) {
    return false;
  }
  if (!query.cells.empty() &&
      std::find(query.cells.begin(), query.cells.end(), info.cell) ==
          query.cells.end()) {
    return false;
  }
  return true;
}

}  // namespace

TraceShardFile LoadTraceFile(const std::string& path) {
  std::ifstream in(path);
  SHEP_REQUIRE(in.good(), "cannot open trace file: " + path);
  try {
    return TraceShardFile::Parse(in);
  } catch (const std::invalid_argument& e) {
    // Name the bad file: a query joins many, and the reader's own message
    // only says what it found, not where.
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::vector<TraceShardFile> LoadTraceFiles(
    const std::vector<std::string>& paths) {
  std::vector<TraceShardFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) files.push_back(LoadTraceFile(path));
  std::sort(files.begin(), files.end(),
            [](const TraceShardFile& a, const TraceShardFile& b) {
              return a.shard < b.shard;
            });
  for (std::size_t i = 1; i < files.size(); ++i) {
    SHEP_REQUIRE(files[i].fingerprint == files[0].fingerprint &&
                     files[i].scenario_name == files[0].scenario_name,
                 "trace files from different runs cannot be joined (plan "
                 "fingerprints disagree)");
    SHEP_REQUIRE(files[i].shard != files[i - 1].shard,
                 "duplicate shard in trace file set: " +
                     std::to_string(files[i].shard));
  }
  return files;
}

TraceQueryResult RunTraceQuery(const std::vector<TraceShardFile>& files,
                               const TraceQuery& query) {
  TraceQueryResult result;
  for (const TraceShardFile& file : files) {
    for (const TraceRecord& record : file.records) {
      if (record.slot < query.slot_begin || record.slot >= query.slot_end) {
        continue;
      }
      if (query.has_node && record.node != query.node) continue;
      if (query.trigger_mask != 0 &&
          (record.trigger_mask & query.trigger_mask) == 0) {
        continue;
      }
      const TraceCellInfo& info = CellInfo(file, record.cell);
      if (!MatchesCell(query, info)) continue;
      result.slots.push_back(
          {file.shard, info.site_code, info.predictor_label, record});
    }
    if (query.trigger_mask != 0) continue;  // day rows carry no triggers.
    for (const TraceDayRecord& record : file.day_records) {
      const std::uint32_t begin_slot = record.day * file.slots_per_day;
      if (begin_slot + file.slots_per_day <= query.slot_begin ||
          begin_slot >= query.slot_end) {
        continue;
      }
      if (query.has_node && record.node != query.node) continue;
      const TraceCellInfo& info = CellInfo(file, record.cell);
      if (!MatchesCell(query, info)) continue;
      result.days.push_back(
          {file.shard, info.site_code, info.predictor_label, record});
    }
  }
  return result;
}

TableBuilder TraceSlotsTable(const TraceQueryResult& result) {
  TableBuilder table("trace slots");
  table.Columns({"shard", "node", "cell", "site", "predictor", "slot",
                 "triggers", "violated", "soc", "predicted_w", "actual_w",
                 "duty"});
  for (const TraceSlotRow& row : result.slots) {
    const TraceRecord& r = row.record;
    table.AddRow({std::to_string(row.shard), std::to_string(r.node),
                  std::to_string(r.cell), row.site_code, row.predictor_label,
                  std::to_string(r.slot),
                  TraceTriggerMaskName(r.trigger_mask),
                  r.violated ? "1" : "0", FormatFixed(r.soc, 6),
                  FormatFixed(r.predicted_w, 6), FormatFixed(r.actual_w, 6),
                  FormatFixed(r.duty, 6)});
  }
  return table;
}

TableBuilder TraceDaysTable(const TraceQueryResult& result) {
  TableBuilder table("trace day summaries");
  table.Columns({"shard", "node", "cell", "site", "predictor", "day", "slots",
                 "violations", "min_soc", "mean_duty", "max_abs_error_w"});
  for (const TraceDayRow& row : result.days) {
    const TraceDayRecord& r = row.record;
    table.AddRow({std::to_string(row.shard), std::to_string(r.node),
                  std::to_string(r.cell), row.site_code, row.predictor_label,
                  std::to_string(r.day), std::to_string(r.slots),
                  std::to_string(r.violations), FormatFixed(r.min_soc, 6),
                  FormatFixed(r.mean_duty, 6),
                  FormatFixed(r.max_abs_error_w, 6)});
  }
  return table;
}

TableBuilder TraceFilesTable(const std::vector<TraceShardFile>& files) {
  TableBuilder table("trace files");
  table.Columns({"shard", "scenario", "fingerprint", "cells", "slot_records",
                 "day_records", "dropped"});
  for (const TraceShardFile& file : files) {
    table.AddRow({std::to_string(file.shard), file.scenario_name,
                  std::to_string(file.fingerprint),
                  std::to_string(file.cells.size()),
                  std::to_string(file.records.size()),
                  std::to_string(file.day_records.size()),
                  std::to_string(file.dropped_events)});
  }
  return table;
}

}  // namespace shep
