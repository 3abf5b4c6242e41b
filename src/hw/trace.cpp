#include "hw/trace.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace fem2::hw {

void Tracer::record(TraceEvent event) {
  if (events_.size() >= capacity_) {
    // Drop the oldest half in one amortized move; timelines care about the
    // recent window anyway and totals live in MachineMetrics.
    const std::size_t keep = capacity_ / 2;
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(
                                        events_.size() - keep));
    dropped_ += capacity_ - keep;
  }
  events_.push_back(event);
}

std::string Tracer::render_pe_gantt(const MachineConfig& config, Cycles begin,
                                    Cycles end, std::size_t buckets) const {
  FEM2_CHECK(end > begin && buckets > 0);
  const double span = static_cast<double>(end - begin);
  const std::size_t pes = config.total_pes();

  // Busy cycles per (pe, bucket), reconstructed from start/finish pairs.
  std::vector<std::vector<double>> busy(pes, std::vector<double>(buckets, 0));
  std::vector<Cycles> open(pes, ~Cycles{0});  // start of an open interval

  auto add_interval = [&](std::size_t pe, Cycles from, Cycles to) {
    from = std::max(from, begin);
    to = std::min(to, end);
    if (from >= to) return;
    const double bucket_width = span / static_cast<double>(buckets);
    for (Cycles t = from; t < to;) {
      const auto b = static_cast<std::size_t>(
          static_cast<double>(t - begin) / bucket_width);
      const auto bucket_end =
          begin + static_cast<Cycles>(bucket_width * static_cast<double>(b + 1));
      const Cycles upto = std::min<Cycles>(std::max(bucket_end, t + 1), to);
      busy[pe][std::min(b, buckets - 1)] += static_cast<double>(upto - t);
      t = upto;
    }
  };

  for (const auto& e : events_) {
    if (e.kind != TraceKind::WorkStarted && e.kind != TraceKind::WorkFinished)
      continue;
    const std::size_t flat =
        e.cluster.index * config.pes_per_cluster + e.pe;
    if (flat >= pes) continue;
    if (e.kind == TraceKind::WorkStarted) {
      open[flat] = e.time;
    } else if (open[flat] != ~Cycles{0}) {
      add_interval(flat, open[flat], e.time);
      open[flat] = ~Cycles{0};
    }
  }
  for (std::size_t pe = 0; pe < pes; ++pe)
    if (open[pe] != ~Cycles{0}) add_interval(pe, open[pe], end);

  const double bucket_width = span / static_cast<double>(buckets);
  std::ostringstream os;
  os << "PE activity, " << begin << " .. " << end << " cycles ('#'>=75%, "
        "'+'>=25%, '.'>0)\n";
  for (std::size_t pe = 0; pe < pes; ++pe) {
    const auto cluster = pe / config.pes_per_cluster;
    const auto index = pe % config.pes_per_cluster;
    os << "c" << cluster << "p" << index << (index == 0 ? "*" : " ") << " |";
    for (std::size_t b = 0; b < buckets; ++b) {
      const double f = busy[pe][b] / bucket_width;
      os << (f >= 0.75 ? '#' : f >= 0.25 ? '+' : f > 0.0 ? '.' : ' ');
    }
    os << "|\n";
  }
  os << "(* = default kernel PE)\n";
  return os.str();
}

std::string Tracer::render_message_profile(Cycles begin, Cycles end,
                                           std::size_t buckets) const {
  FEM2_CHECK(end > begin && buckets > 0);
  std::vector<std::uint64_t> counts(buckets, 0);
  const double span = static_cast<double>(end - begin);
  for (const auto& e : events_) {
    if (e.kind != TraceKind::MessageDelivered) continue;
    if (e.time < begin || e.time >= end) continue;
    const auto b = static_cast<std::size_t>(
        static_cast<double>(e.time - begin) / span *
        static_cast<double>(buckets));
    counts[std::min(b, buckets - 1)] += 1;
  }
  std::uint64_t peak = 1;
  for (const auto c : counts) peak = std::max(peak, c);

  std::ostringstream os;
  os << "messages delivered per bucket (peak " << peak << ")\n";
  static constexpr char kLevels[] = " .:-=+*#%@";
  os << "|";
  for (const auto c : counts) {
    const auto level = static_cast<std::size_t>(
        static_cast<double>(c) / static_cast<double>(peak) * 9.0);
    os << kLevels[level];
  }
  os << "|\n";
  return os.str();
}

}  // namespace fem2::hw
