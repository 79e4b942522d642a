#include "fleet/partial.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/serdes.hpp"

namespace shep {

namespace {

/// The text form of a partial, for serdes::TextWriter and TextReader alike.
template <class Io, class Partial>
void PartialFields(Io& io, Partial& p) {
  // v2: CellAccumulator gained the min_soc moments (PR 7).  v3: the
  // graceful-degradation channel (availability and post-recovery moments,
  // downtime/recovery totals).  Older partials would mis-align on parse,
  // so the version token rejects them up front.
  io.Line("shep-fleet-partial", "v3");
  io.Line("scenario", p.scenario_name);
  io.Line("fingerprint", p.plan_fingerprint);
  io.Line("nodes", p.nodes_simulated);
  io.Line("synth_seconds", p.synth_seconds);
  io.Line("sim_seconds", p.sim_seconds);
  io.Fields("shards");
  io.Seq(p.shards, [&io](auto& shard) {
    io.Line();
    io.Fields("shard", shard.shard, "cells");
    io.Seq(shard.cells, [&io](auto& cell) {
      io.Line();
      io.Line("cell", cell.first);
      io.Object(cell.second);
    });
  });
  io.Line();
  io.Line("end");
}

}  // namespace

std::string FleetPartial::Serialize() const {
  std::ostringstream os;
  serdes::TextWriter writer(os);
  PartialFields(writer, *this);
  return os.str();
}

FleetPartial FleetPartial::Parse(const std::string& text) {
  std::istringstream is(text);
  serdes::TextReader reader(is);
  FleetPartial partial;
  PartialFields(reader, partial);
  for (std::size_t s = 1; s < partial.shards.size(); ++s) {
    SHEP_REQUIRE(partial.shards[s].shard > partial.shards[s - 1].shard,
                 "partial shards must be ascending by index");
  }
  return partial;
}

}  // namespace shep
