#include "spot/trace.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace plinius::spot {

SpotTrace SpotTrace::parse_csv(const std::string& text) {
  SpotTrace trace;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) {
      throw Error("spot trace: expected 'timestamp,price' at line " +
                  std::to_string(line_no));
    }
    try {
      SpotTraceEntry e;
      e.timestamp_s = std::stod(line.substr(0, comma));
      e.price = std::stod(line.substr(comma + 1));
      trace.entries.push_back(e);
    } catch (const std::exception&) {  // stod: invalid_argument or out_of_range
      if (line_no == 1) continue;      // header line
      throw Error("spot trace: malformed line " + std::to_string(line_no));
    }
  }
  if (trace.entries.empty()) throw Error("spot trace: no entries");
  return trace;
}

SpotTrace SpotTrace::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("spot trace: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_csv(text.str());
}

std::string SpotTrace::to_csv() const {
  std::ostringstream out;
  // Round-trip precision: parse_csv(to_csv()) reproduces every double exactly.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "timestamp,price\n";
  for (const auto& e : entries) out << e.timestamp_s << ',' << e.price << '\n';
  return out.str();
}

SpotTrace SpotTrace::synthetic(std::size_t ticks, std::uint64_t seed, double base_price,
                               double spike_probability) {
  SpotTrace trace;
  trace.entries.reserve(ticks);
  Rng rng(seed);
  double drift = 0;
  std::size_t spike_remaining = 0;
  double spike_height = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    drift = 0.9 * drift + 0.0004 * rng.normal();  // slow mean-reverting walk
    if (spike_remaining == 0 && rng.uniform() < spike_probability) {
      spike_remaining = 1 + rng.below(4);
      spike_height = 0.007 + 0.02 * rng.uniform();
    }
    double price = base_price + drift + 0.0005 * rng.normal();
    if (spike_remaining > 0) {
      price += spike_height;
      --spike_remaining;
    }
    trace.entries.push_back({static_cast<double>(t) * kTickSeconds, price});
  }
  return trace;
}

}  // namespace plinius::spot
