// node_simulation — why prediction accuracy matters downstream.
//
// Closes the paper's Fig. 1 loop: a solar-harvesting sensor node adapts
// its duty cycle each slot based on the predicted incoming energy.  We run
// the same node with four predictors of increasing quality on a volatile
// site and compare operational outcomes: brown-outs, wasted harvest, and
// achieved duty cycle.
#include <iostream>

#include "common/strings.hpp"
#include "core/baselines.hpp"
#include "core/ewma.hpp"
#include "core/wcma.hpp"
#include "mgmt/node_sim_kernel.hpp"
#include "report/table.hpp"
#include "solar/synth.hpp"

int main() {
  using namespace shep;

  SynthOptions options;
  options.days = 180;
  const PowerTrace trace = SynthesizeTrace(SiteByCode("ORNL"), options);
  const int n = 48;
  const SlotSeries series(trace, n);

  NodeSimConfig config;
  config.duty.slot_seconds = 1800.0;
  config.duty.active_power_w = 0.40;   // sensing + radio at full duty;
                                       // sized so ~0.2 W mean harvest
                                       // sustains ~50 % duty
  config.duty.sleep_power_w = 5.0e-6;
  config.duty.min_duty = 0.05;         // availability floor
  config.duty.level_gain = 0.10;
  config.storage.capacity_j = 4000.0;  // a few hours of buffer
  config.storage.charge_efficiency = 0.85;
  config.storage.leakage_w = 20.0e-6;
  config.warmup_days = 20;

  WcmaParams guideline;
  guideline.alpha = 0.7;
  guideline.days = 10;
  guideline.slots_k = 2;
  Wcma wcma(guideline, n);
  Ewma ewma(0.5, n);
  Persistence persistence;
  PreviousDay previous_day(n);

  TableBuilder table("Node outcomes on " + trace.name() + " (" +
                     std::to_string(options.days) + " days, N=48)");
  table.Columns({"Predictor", "brown-out rate", "wasted harvest",
                 "mean duty", "duty stddev", "min store level"});
  // The kernel is instantiated on each concrete predictor type.
  const auto simulate = [&](auto& p) {
    const auto r = SimulateNodeKernel(p, series, config);
    table.AddRow({p.Name(), FormatPercent(r.violation_rate),
                  FormatPercent(r.overflow_j / r.harvested_j),
                  FormatPercent(r.mean_duty), FormatFixed(r.duty_stddev, 3),
                  FormatPercent(r.min_level_fraction)});
  };
  simulate(wcma);
  simulate(ewma);
  simulate(persistence);
  simulate(previous_day);
  std::cout << table.ToString();
  std::cout << "\nReading: brown-outs (store empty while committed) and\n"
               "wasted harvest (store full, panel energy discarded) are the\n"
               "two failure modes prediction error causes; the better the\n"
               "predictor, the less of both — the premise of the paper's\n"
               "harvested-energy management motivation.\n";
  return 0;
}
