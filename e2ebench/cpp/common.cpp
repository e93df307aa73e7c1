#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace e2ebench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t at = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(at),
                   v.end());
  return v[at];
}

void Repetitions::add(const std::vector<std::int64_t>& marks_ns,
                      const std::vector<double>& latency_us) {
  if (marks_ns.size() < 2)
    throw std::invalid_argument("a repetition needs a start and an end mark");
  const std::size_t steps = marks_ns.size() - 1;
  const std::size_t segments =
      reduce == Reduce::kEnvelope ? std::min(kSegments, steps) : 1;
  if (wall_s.empty()) {
    segment_s.assign(segments, INFINITY);
    if (reduce == Reduce::kEnvelope)
      this->latency_us.assign(latency_us.size(), INFINITY);
  }
  if (segment_s.size() != segments ||
      (reduce == Reduce::kEnvelope &&
       this->latency_us.size() != latency_us.size()))
    throw std::invalid_argument("repetitions differ in their marks");
  for (std::size_t k = 0; k < segments; ++k) {
    const std::int64_t span = marks_ns[(k + 1) * steps / segments] -
                              marks_ns[k * steps / segments];
    segment_s[k] = std::min(segment_s[k], static_cast<double>(span) * 1e-9);
  }
  if (reduce == Reduce::kEnvelope) {
    for (std::size_t i = 0; i < latency_us.size(); ++i)
      this->latency_us[i] = std::min(this->latency_us[i], latency_us[i]);
  } else {
    p50_us.push_back(quantile(latency_us, 0.50));
    p99_us.push_back(quantile(latency_us, 0.99));
  }
  wall_s.push_back(static_cast<double>(marks_ns.back() - marks_ns.front()) *
                   1e-9);
  samples = latency_us.size();
}

void Repetitions::emit(Report& report, double jobs, double requests) const {
  double envelope_s = 0.0;
  for (const double s : segment_s) envelope_s += s;
  // No repetition (every one failed): rates of 0, which run.py refuses.
  const double per_s = envelope_s > 0.0 ? 1.0 / envelope_s : 0.0;
  report.metric("jobs_per_s", jobs * per_s, "1/s");
  report.metric("req_per_s", requests * per_s, "1/s");
  if (reduce == Reduce::kEnvelope) {
    report.metric("latency_p50_us", quantile(latency_us, 0.50), "us");
    report.metric("latency_p99_us", quantile(latency_us, 0.99), "us");
  } else {
    report.metric("latency_p50_us",
                  p50_us.empty() ? 0.0 : std::ranges::min(p50_us), "us");
    report.metric("latency_p99_us",
                  p99_us.empty() ? 0.0 : std::ranges::min(p99_us), "us");
  }
  std::string walls;
  for (const double w : wall_s)
    walls += (walls.empty() ? "" : " ") + std::to_string(w);
  report.note("repetitions", std::to_string(count()));
  report.note("latency_samples", std::to_string(samples) + " per repetition");
  report.note("timed_s", std::to_string(envelope_s));
  report.note("wall_s", walls);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace e2ebench
