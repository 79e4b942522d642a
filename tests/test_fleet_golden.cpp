// Golden integration test: a small fixed fleet (2 sites × 3 predictors ×
// 2 storage tiers × 3 replicas) with its exact expected aggregates
// committed as a fixture.  Existence checks ("it ran") let value
// regressions through; this suite fails on them instead — any refactor of
// the scenario expansion, seed derivation, runner, node simulation,
// accumulator arithmetic, or report formatting that changes a single
// reported digit shows up as a CSV diff against the fixture below.
//
// The fixture is the CSV rendering (6 significant decimals for ratios, one
// for cycle counts), which deliberately absorbs sub-1e-6 noise from libm
// differences, plus the exact integer totals per cell.  To regenerate
// after an INTENDED behavior change: build, run the identical spec through
// RunFleet, and paste summary.ToCsv() here — then justify the diff in the
// commit message.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "fleet/coord.hpp"
#include "fleet/runner.hpp"

namespace shep {
namespace {

// KEEP IN SYNC with the fixture: any spec change invalidates the values.
ScenarioSpec GoldenSpec() {
  ScenarioSpec spec;
  spec.name = "golden";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.alpha = 0.7;
  wcma.wcma.days = 10;
  wcma.wcma.slots_k = 3;
  PredictorSpec fixed = wcma;
  fixed.kind = PredictorKind::kWcmaFixed;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, fixed, persistence};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = 3;
  spec.days = 30;
  spec.slots_per_day = 48;
  spec.seed = 2026;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.2;
  return spec;
}

// The committed expectation (generated from this exact spec; see the file
// comment for the regeneration recipe).  Note the fixture's own story: the
// FixedWCMA rows reproduce the float rows to 6 decimals on accuracy AND
// carry the MCU-cost columns the float rows mark n/a, while the one
// wasted_harvest digit that differs (PFCI/6000: ...678 vs ...679) is the
// genuine Q16.16 quantisation residue propagating through the store.
constexpr const char* kGoldenCsv =
    "site,predictor,storage_j,nodes,viol_mean,viol_p50,viol_p95,viol_max,mean"
    "_duty,wasted_harvest,min_soc,mape,cyc_mean,cyc_p95,ops_mean\n"
    "HSU,WCMA,1500,3,0.286013,0.400391,0.402923,0.402923,0.270596,0.066947,0."
    "000000,0.134617,n/a,n/a,n/a\n"
    "HSU,WCMA,6000,3,0.000000,0.000000,0.000000,0.000000,0.276324,0.001881,0."
    "215352,0.134617,n/a,n/a,n/a\n"
    "HSU,FixedWCMA,1500,3,0.286013,0.400391,0.402923,0.402923,0.270596,0.0669"
    "47,0.000000,0.134617,1836.2,1838.0,32.3\n"
    "HSU,FixedWCMA,6000,3,0.000000,0.000000,0.000000,0.000000,0.276324,0.0018"
    "81,0.215362,0.134617,1836.2,1838.0,32.3\n"
    "HSU,Persistence,1500,3,0.395268,0.486328,0.492693,0.492693,0.267856,0.07"
    "9543,0.000000,0.206190,n/a,n/a,n/a\n"
    "HSU,Persistence,6000,3,0.000000,0.000000,0.000000,0.000000,0.275531,0.00"
    "5289,0.217473,0.206190,n/a,n/a,n/a\n"
    "PFCI,WCMA,1500,3,0.136395,0.103516,0.240084,0.240084,0.343943,0.219753,0"
    ".000000,0.081986,n/a,n/a,n/a\n"
    "PFCI,WCMA,6000,3,0.000000,0.000000,0.000000,0.000000,0.373225,0.137678,0"
    ".265148,0.081986,n/a,n/a,n/a\n"
    "PFCI,FixedWCMA,1500,3,0.136395,0.103516,0.240084,0.240084,0.343943,0.219"
    "753,0.000000,0.081986,1868.9,1869.6,32.4\n"
    "PFCI,FixedWCMA,6000,3,0.000000,0.000000,0.000000,0.000000,0.373225,0.137"
    "679,0.265158,0.081986,1868.9,1869.6,32.4\n"
    "PFCI,Persistence,1500,3,0.270007,0.255859,0.340292,0.340292,0.340113,0.2"
    "30333,0.000000,0.136708,n/a,n/a,n/a\n"
    "PFCI,Persistence,6000,3,0.000000,0.000000,0.000000,0.000000,0.366344,0.1"
    "53593,0.305982,0.136708,n/a,n/a,n/a\n";

// (violations, scored_slots) per cell, in cell order.  scored_slots is
// structural — 3 nodes × ((30 − 20) × 48 − 1) — but violations are genuine
// simulation outcomes: integer threshold crossings, exact by construction.
constexpr std::array<std::pair<std::uint64_t, std::uint64_t>, 12>
    kGoldenTotals{{
        {411u, 1437u},  // HSU WCMA 1500
        {0u, 1437u},    // HSU WCMA 6000
        {411u, 1437u},  // HSU FixedWCMA 1500
        {0u, 1437u},    // HSU FixedWCMA 6000
        {568u, 1437u},  // HSU Persistence 1500
        {0u, 1437u},    // HSU Persistence 6000
        {196u, 1437u},  // PFCI WCMA 1500
        {0u, 1437u},    // PFCI WCMA 6000
        {196u, 1437u},  // PFCI FixedWCMA 1500
        {0u, 1437u},    // PFCI FixedWCMA 6000
        {388u, 1437u},  // PFCI Persistence 1500
        {0u, 1437u},    // PFCI Persistence 6000
    }};

TEST(FleetGolden, CsvMatchesCommittedFixture) {
  const FleetSummary summary = RunFleet(GoldenSpec());
  EXPECT_EQ(summary.ToCsv(), kGoldenCsv);
}

TEST(FleetGolden, IntegerTotalsMatchCommittedFixture) {
  const FleetSummary summary = RunFleet(GoldenSpec());
  ASSERT_EQ(summary.stats.size(), kGoldenTotals.size());
  for (std::size_t i = 0; i < kGoldenTotals.size(); ++i) {
    EXPECT_EQ(summary.stats[i].violations, kGoldenTotals[i].first)
        << "cell " << i << " (" << summary.cells[i].site_code << " "
        << summary.cells[i].predictor_label << " "
        << summary.cells[i].storage_j << ")";
    EXPECT_EQ(summary.stats[i].scored_slots, kGoldenTotals[i].second)
        << "cell " << i;
  }
}

// Every PredictorKind in one campaign, healthy and under fault injection.
// The CSV fixture above covers three kinds at six decimals; this one pins
// each cell's exact accumulator text (CellAccumulator::Serialize, hexfloat)
// through its FNV-1a checksum, so a single moved bit in any kind fails.
// The faulted run re-warms predictors on every outage recovery, which is
// the Reset() path.  Regenerate like the CSV fixture: print the checksums
// for this exact spec and justify the diff.
ScenarioSpec AllKindsSpec(bool faulted) {
  ScenarioSpec spec;
  spec.name = "all-kinds";
  spec.sites = {"HSU"};
  PredictorSpec base;
  base.wcma.alpha = 0.7;
  base.wcma.days = 10;
  base.wcma.slots_k = 3;
  base.ewma_weight = 0.5;
  base.ar.order = 3;
  base.ar.days = 10;
  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kAdaptiveWcma, PredictorKind::kPersistence,
        PredictorKind::kPreviousDay}) {
    base.kind = kind;
    spec.predictors.push_back(base);
  }
  spec.storage_tiers_j = {3000.0};
  spec.nodes_per_cell = 2;
  spec.days = 30;
  spec.slots_per_day = 48;
  spec.seed = 2026;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.2;
  if (faulted) {
    spec.faults.outage_rate_per_day = 1.0;
    spec.faults.outage_mean_slots = 6.0;
    spec.faults.dropout_rate_per_day = 1.0;
    spec.faults.dropout_mean_slots = 4.0;
    spec.faults.panel_decay_per_day = 0.001;
    spec.faults.battery_aging_per_day = 0.002;
  }
  return spec;
}

std::vector<std::uint64_t> CellChecksums(const FleetSummary& summary) {
  std::vector<std::uint64_t> sums;
  for (const CellAccumulator& cell : summary.stats) {
    std::ostringstream os;
    cell.Serialize(os);
    sums.push_back(FleetFrameChecksum(os.str()));
  }
  return sums;
}

// One checksum per cell, in PredictorKind order.
constexpr std::array<std::uint64_t, 8> kAllKindsHealthy{{
    0xd8037ac3cf3801cfull,  // WCMA
    0xc7352e4e26a3f5c5ull,  // FixedWCMA
    0x68502912fbb2f0a7ull,  // VmWCMA
    0x279cf4f34d7d2ab9ull,  // EWMA
    0x16f94c67b2a0bef4ull,  // AR
    0x806fd65492c18b78ull,  // AdaptiveWCMA
    0x070ddd5484318291ull,  // Persistence
    0x4ae9bee94e565587ull,  // PreviousDay
}};
constexpr std::array<std::uint64_t, 8> kAllKindsFaulted{{
    0x4368d38c6cd20352ull,  // WCMA
    0x4b95b92bcfe29ad5ull,  // FixedWCMA
    0x899e1b2f09c27b7full,  // VmWCMA
    0x0b5f1dbd7ab327d2ull,  // EWMA
    0xd2a38a912712e918ull,  // AR
    0x20c889e408ee2f18ull,  // AdaptiveWCMA
    0xabe80fe193be72e0ull,  // Persistence
    0xe42401a87d330a48ull,  // PreviousDay
}};

TEST(FleetGolden, AllKindsCellTextMatchesCommittedChecksums) {
  for (bool faulted : {false, true}) {
    const FleetSummary summary = RunFleet(AllKindsSpec(faulted));
    const auto& expected = faulted ? kAllKindsFaulted : kAllKindsHealthy;
    const std::vector<std::uint64_t> sums = CellChecksums(summary);
    ASSERT_EQ(sums.size(), expected.size());
    for (std::size_t i = 0; i < sums.size(); ++i) {
      EXPECT_EQ(sums[i], expected[i])
          << (faulted ? "faulted " : "healthy ")
          << summary.cells[i].predictor_label << " got 0x" << std::hex
          << sums[i];
    }
    if (faulted) {
      for (const CellAccumulator& cell : summary.stats) {
        EXPECT_GT(cell.recoveries, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace shep
