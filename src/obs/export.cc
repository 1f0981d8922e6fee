#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

namespace plinius::obs {

namespace {

void append_escaped(std::string& out, const char* s) {
  out += '"';
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_num(std::string& out, double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out += buf;
}

}  // namespace

std::string to_chrome_trace(const Tracer& tracer) {
  const std::vector<SpanRecord> spans = tracer.spans();
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += "  {\"name\": ";
    append_escaped(out, s.name != nullptr ? s.name : "?");
    out += ", \"cat\": ";
    append_escaped(out, to_string(s.category));
    out += ", \"ph\": \"X\", \"ts\": ";
    append_num(out, s.begin_ns / 1e3);  // trace-event timestamps are in us
    out += ", \"dur\": ";
    append_num(out, s.duration() / 1e3);
    out += ", \"pid\": 0, \"tid\": ";
    append_num(out, static_cast<double>(s.track));
    out += ", \"args\": {\"id\": ";
    append_num(out, static_cast<double>(s.id));
    out += ", \"parent\": ";
    append_num(out, static_cast<double>(s.parent));
    for (std::size_t a = 0; a < s.num_attrs; ++a) {
      out += ", ";
      append_escaped(out, s.attrs[a].key != nullptr ? s.attrs[a].key : "?");
      out += ": ";
      append_num(out, s.attrs[a].value);
    }
    out += "}}";
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

double CostReport::share_of(std::initializer_list<Category> cs) const noexcept {
  if (total_ns <= 0) return 0.0;
  sim::Nanos sum = 0;
  for (const Category c : cs) sum += ns(c);
  return sum / total_ns;
}

std::string CostReport::to_json() const {
  std::string out = "{\"total_ns\": ";
  append_num(out, total_ns);
  out += ", \"spans\": ";
  append_num(out, static_cast<double>(spans));
  out += ", \"categories\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const CategoryCost& cc = by_category[i];
    if (cc.spans == 0 && cc.self_ns <= 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "  {\"category\": ";
    append_escaped(out, to_string(static_cast<Category>(i)));
    out += ", \"self_ns\": ";
    append_num(out, cc.self_ns);
    out += ", \"share\": ";
    append_num(out, total_ns > 0 ? cc.self_ns / total_ns : 0.0);
    out += ", \"spans\": ";
    append_num(out, static_cast<double>(cc.spans));
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string CostReport::to_table() const {
  // Sort categories by descending self time for readability.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    if (by_category[i].spans > 0 || by_category[i].self_ns > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return by_category[a].self_ns > by_category[b].self_ns;
  });
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "%-16s %14s %8s %10s\n", "category",
                "self_ms", "share", "spans");
  out += line;
  for (const std::size_t i : order) {
    const CategoryCost& cc = by_category[i];
    std::snprintf(line, sizeof(line), "%-16s %14.3f %7.1f%% %10llu\n",
                  to_string(static_cast<Category>(i)), cc.self_ns / 1e6,
                  total_ns > 0 ? 100.0 * cc.self_ns / total_ns : 0.0,
                  static_cast<unsigned long long>(cc.spans));
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-16s %14.3f %7.1f%% %10llu\n", "total",
                total_ns / 1e6, total_ns > 0 ? 100.0 : 0.0,
                static_cast<unsigned long long>(spans));
  out += line;
  return out;
}

namespace {

/// Sum of *direct* child durations per parent id. Children whose parent was
/// evicted from the ring simply don't contribute (their parent id is absent
/// from the map consumers query) — rollups then treat them as roots, which
/// keeps attribution conservative rather than double-counting.
std::unordered_map<std::uint64_t, sim::Nanos> child_sums(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, sim::Nanos> sums;
  sums.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) sums[s.parent] += s.duration();
  }
  return sums;
}

void add_span(CostReport& report,
              const std::unordered_map<std::uint64_t, sim::Nanos>& children,
              const SpanRecord& s) {
  const auto it = children.find(s.id);
  const sim::Nanos child_ns = it == children.end() ? 0 : it->second;
  const sim::Nanos self = std::max(0.0, s.duration() - child_ns);
  CategoryCost& cc = report.by_category[static_cast<std::size_t>(s.category)];
  cc.self_ns += self;
  ++cc.spans;
  report.total_ns += self;
  ++report.spans;
}

}  // namespace

CostReport rollup(const std::vector<SpanRecord>& spans) {
  CostReport report;
  const auto children = child_sums(spans);
  for (const SpanRecord& s : spans) add_span(report, children, s);
  return report;
}

CostReport rollup(const Tracer& tracer) { return rollup(tracer.spans()); }

CostReport attribute_under(const std::vector<SpanRecord>& spans,
                           const char* root_name) {
  CostReport report;
  const auto children = child_sums(spans);
  // Membership via parent chains: a span belongs to the report if it or any
  // ancestor still in the ring is named `root_name`.
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  const std::string want(root_name);
  std::unordered_set<std::uint64_t> in, out;
  for (const SpanRecord& s : spans) {
    std::vector<std::uint64_t> chain;
    const SpanRecord* cur = &s;
    bool member = false;
    for (;;) {
      if (in.count(cur->id) != 0) {
        member = true;
        break;
      }
      if (out.count(cur->id) != 0) break;
      chain.push_back(cur->id);
      if (cur->name != nullptr && want == cur->name) {
        member = true;
        break;
      }
      if (cur->parent == 0) break;
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;  // parent evicted: chain ends here
      cur = it->second;
    }
    for (const std::uint64_t id : chain) (member ? in : out).insert(id);
    if (member) add_span(report, children, s);
  }
  return report;
}

CostReport attribute_under(const Tracer& tracer, const char* root_name) {
  return attribute_under(tracer.spans(), root_name);
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  f << content;
  f.flush();
  if (!f.good()) {
    std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace plinius::obs
