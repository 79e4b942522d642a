#include "trace/trace_file.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/serdes.hpp"

namespace shep {

namespace {

/// The text form of a shard file, for serdes::TextWriter and TextReader
/// alike.
template <class Io, class File>
void ShardFileFields(Io& io, File& f) {
  io.Line("shep-trace", "v1");
  io.Line("scenario", f.scenario_name);
  io.Line("fingerprint", f.fingerprint);
  io.Line("shard", f.shard);
  io.Line("slots_per_day", f.slots_per_day);
  io.Line("days", f.days);
  io.Fields("cells");
  io.Seq(f.cells, [&io](auto& cell) {
    io.Line();
    io.Fields("cell", cell.cell, cell.site_code, cell.predictor_label,
              cell.storage_j);
  });
  io.Line();
  io.Fields("records");
  io.Seq(f.records, [&io](auto& r) { io.Object(r); });
  io.Line();
  io.Fields("day_records");
  io.Seq(f.day_records, [&io](auto& r) { io.Object(r); });
  io.Line();
  io.Line("dropped", f.dropped_events);
  io.Line("end");
}

}  // namespace

void TraceShardFile::Serialize(std::ostream& os) const {
  serdes::TextWriter writer(os);
  ShardFileFields(writer, *this);
}

TraceShardFile TraceShardFile::Parse(std::istream& is) {
  serdes::TextReader reader(is);
  TraceShardFile file;
  ShardFileFields(reader, file);
  for (std::size_t c = 1; c < file.cells.size(); ++c) {
    SHEP_REQUIRE(file.cells[c - 1].cell < file.cells[c].cell,
                 "trace cells must be ascending by id");
  }
  return file;
}

std::string TraceShardFile::FileName(std::uint64_t fingerprint,
                                     std::uint64_t shard) {
  std::ostringstream os;
  os << "trace-" << std::hex << std::setw(16) << std::setfill('0')
     << fingerprint << std::dec << "-shard" << shard << ".shtr";
  return os.str();
}

}  // namespace shep
