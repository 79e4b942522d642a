// workloads.hpp — the benchmark's four workloads and the campaign they share.
//
// Every workload is built from one seed.  Each repetition returns a digest
// of every raw output bit plus the first behaviour-range violation it saw
// (node, lane, shard, frame and config counts; dropped trace events); the
// digests are checked against a serial reference for the same seed, which
// is computed after the timed repetitions so it never shows in their peak
// memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/aggregate.hpp"
#include "fleet/scenario.hpp"
#include "spans.hpp"
#include "sweep/sweep.hpp"
#include "trace/sink.hpp"

namespace perfbench {

/// Threads (and coordinator worker processes) a workload uses: 4, or fewer
/// on a machine with fewer hardware threads.
std::size_t BenchThreads();

/// Pool threads of fleet_telemetry: the sink's drain thread takes one of
/// the BenchThreads().
std::size_t TelemetryPoolThreads();

/// The full bench_fleet campaign: ORNL/ECSU/PFCI x {WCMA, FixedWCMA,
/// VmWCMA, EWMA, Persistence} x 3 storage tiers x 40 nodes x 120 days at
/// N = 48, rooted at `seed`.
shep::ScenarioSpec CampaignSpec(std::uint64_t seed);

/// Shape of CampaignSpec at the default shard size of 8 nodes.
inline constexpr std::size_t kCampaignNodes = 1800;
inline constexpr std::size_t kCampaignLanes = 120;
inline constexpr std::size_t kCampaignShards = 225;
/// Configs scored per paper_sweep repetition: 30 (site, N) pairs x 1254.
inline constexpr std::size_t kPaperSweepConfigs = 37620;

/// Stats-only sink as bench_fleet prices tracing: block_on_full, with rings
/// sized to hold the largest shard of `spec` outright.
shep::TraceSinkOptions TelemetrySinkOptions(const shep::ScenarioSpec& spec);

/// FNV-1a over the exact bits of every raw accumulator field (moments,
/// histogram bins, integer totals) of every cell.  Equal digests mean the
/// summaries agree bit for bit, which a rendered-CSV comparison would not
/// show.
std::uint64_t DigestSummary(const shep::FleetSummary& summary);

/// FNV-1a over the exact bits of every field of every sweep point.
std::uint64_t DigestPoints(const std::vector<shep::SweepPoint>& points);

/// The paper's evaluation filter: days 21.., samples >= 10 % of peak.
shep::RoiFilter PaperFilter();

/// What one repetition produced.
struct RepOutput {
  std::uint64_t digest = 0;  ///< every output bit, for the reference check.
  std::string error;         ///< first thing wrong with the run, or empty.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Creates what repetitions share (thread pool, trace sink): the part of
  /// set-up time that is not the cold repetition.
  virtual void CreateResources() = 0;
  virtual void ReleaseResources() = 0;
  /// Runs one repetition, recording spans when `spans` is non-null.
  virtual RepOutput Run(SpanRecorder* spans) = 0;
  /// Digest of the serial reference output for this seed.  Not part of
  /// set-up time.
  virtual std::uint64_t ReferenceDigest() = 0;

  /// Work per repetition, for the throughput line: node-days or configs.
  virtual double work_units() const = 0;
  virtual const char* throughput_metric() const = 0;
  /// Prediction accuracy of the last repetition, in percent: mean MAPE
  /// over cells (fleet) or mean BestByMape MAPE over (site, N)
  /// (paper_sweep).  Deterministic in the seed.
  virtual double mape_pct() const = 0;
};

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace perfbench
