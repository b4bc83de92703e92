#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q not in (0, 1]");
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, parent.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, parent.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = parent.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = parent.duration_ns() - covered;
  }
  return self;
}

double coverage_ratio(std::int64_t attributed_ns, std::int64_t wall_ns) {
  if (wall_ns <= 0) return 0.0;
  return static_cast<double>(attributed_ns) / static_cast<double>(wall_ns);
}

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t SpanLog::open(std::uint32_t name, std::uint32_t run) {
  Span s;
  s.name = name;
  s.run = run;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("span closed out of order");
  spans_[index].end_ns = now_ns();
  stack_.pop_back();
}

void SpanLog::clear() {
  if (!stack_.empty()) throw std::logic_error("clear() with a span open");
  spans_.clear();
}

bool SpanLog::write_tsv(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  for (const Span& s : spans_)
    std::fprintf(f.get(), "%s\t%u\t%lld\t%lld\t%lld\n",
                 names_[s.name].c_str(), s.run,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::ferror(f.get()) == 0;
}

std::vector<NameTotals> totals_by_name(const SpanLog& log) {
  std::vector<NameTotals> out(log.names().size());
  const std::vector<std::int64_t> self = self_times(log.spans());
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    NameTotals& t = out[log.spans()[i].name];
    ++t.count;
    t.total_ns += log.spans()[i].duration_ns();
    t.self_ns += self[i];
  }
  return out;
}

}  // namespace perfbench
