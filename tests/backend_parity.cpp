#include "backend_parity.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.hpp"

namespace shep {

BackendDivergence MeasurePredictionDivergence(Predictor& a, Predictor& b,
                                              const SlotSeries& series,
                                              std::size_t skip_slots) {
  a.Reset();
  b.Reset();
  BackendDivergence divergence;
  double abs_sum = 0.0;
  // Same loop shape as SimulateNode: the final boundary has no successor
  // slot, so it is observed by neither comparison.
  for (std::size_t g = 0; g + 1 < series.size(); ++g) {
    a.Observe(series.boundary(g));
    b.Observe(series.boundary(g));
    if (g < skip_slots) continue;
    const double diff = std::fabs(a.PredictNext() - b.PredictNext());
    ++divergence.slots;
    abs_sum += diff;
    divergence.max_abs_w = std::max(divergence.max_abs_w, diff);
  }
  if (divergence.slots > 0) {
    divergence.mean_abs_w = abs_sum / static_cast<double>(divergence.slots);
  }
  if (series.peak_mean() > 0.0) {
    divergence.max_rel_peak = divergence.max_abs_w / series.peak_mean();
  }
  return divergence;
}

namespace {

/// (site, storage) -> cell index for one predictor label.
std::map<std::pair<std::size_t, std::size_t>, std::size_t> CellsOf(
    const FleetSummary& summary, const std::string& label) {
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> cells;
  for (const ScenarioCell& cell : summary.cells) {
    if (cell.predictor_label == label) {
      cells.emplace(std::make_pair(cell.site_index, cell.storage_index),
                    cell.index);
    }
  }
  SHEP_REQUIRE(!cells.empty(), "no cells carry predictor label " + label);
  return cells;
}

}  // namespace

std::vector<CellMapeDelta> MapeDeltas(const FleetSummary& summary,
                                      const std::string& label_a,
                                      const std::string& label_b) {
  const auto cells_a = CellsOf(summary, label_a);
  const auto cells_b = CellsOf(summary, label_b);
  std::vector<CellMapeDelta> deltas;
  deltas.reserve(cells_a.size());
  for (const auto& [key, index_a] : cells_a) {
    const auto it = cells_b.find(key);
    SHEP_REQUIRE(it != cells_b.end(),
                 "label " + label_b + " has no cell matching a " + label_a +
                     " (site, storage) combination");
    const std::size_t index_b = it->second;
    const CellAccumulator& stats_a = summary.stats[index_a];
    const CellAccumulator& stats_b = summary.stats[index_b];
    SHEP_REQUIRE(stats_a.mape.valid() && stats_b.mape.valid(),
                 "matched cells must both have measured MAPE");
    CellMapeDelta delta;
    delta.cell_a = index_a;
    delta.cell_b = index_b;
    delta.site_code = summary.cells[index_a].site_code;
    delta.storage_j = summary.cells[index_a].storage_j;
    delta.mape_a = stats_a.mape.mean;
    delta.mape_b = stats_b.mape.mean;
    deltas.push_back(delta);
  }
  return deltas;
}

double MaxAbsMapeDelta(const std::vector<CellMapeDelta>& deltas) {
  double max_delta = 0.0;
  for (const CellMapeDelta& delta : deltas) {
    max_delta = std::max(max_delta, delta.abs_delta());
  }
  return max_delta;
}

}  // namespace shep
