// Shared plumbing of the end-to-end benchmark program: run options, the
// clock, order statistics and the report every workload fills in.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// Input sizes: kFull is the measured benchmark, kTiny the self-test.
enum class Scale { kFull, kTiny };

/// Deliberate faults for the self-test's negative cases.
enum class Inject { kNone, kCost, kDropReply };

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  Inject inject = Inject::kNone;
  /// Directory (relative to the working directory) for the allocd socket.
  std::string socket_dir = ".";
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Bitwise equality: the checks compare doubles bit for bit.
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Median of a copy of `v` (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// The q-quantile (0..1) of `v` by the nearest-rank rule on a sorted copy.
double quantile(std::vector<double> v, double q);

/// splitmix64: derives independent sub-seeds from the run's --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// One named correctness check and how many operations it found wrong.
struct Check {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string detail;
};

/// What a workload hands back to main(): metrics in emission order, the
/// checks it ran and free-form facts recorded beside the result.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::deque<Check> checks;  ///< a deque: check() references stay valid
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  Check& check(const std::string& name) {
    checks.push_back(Check{name, 0, 0, {}});
    return checks.back();
  }
};

/// How the repetitions of a run are reduced to its timing metrics.
/// Contention from other tenants of a shared machine only ever slows work
/// down, so both take the least-disturbed timings (README.md, "Noise").
enum class Reduce {
  /// For work whose every repetition takes the same steps on one thread
  /// (the replays): the lower envelope. Contention comes and goes within a
  /// repetition, so hardly any repetition is undisturbed from end to end,
  /// but each part of the work is undisturbed in some repetition. Each
  /// repetition is cut at the same clock marks into at most kSegments
  /// segments; a segment's time is its least over the repetitions and the
  /// run's time is their sum. Each latency sample is likewise its least
  /// over the repetitions, and the percentiles are taken over those.
  kEnvelope,
  /// For work whose own timing varies between repetitions (allocd, where
  /// the server's thread hand-offs are part of what is measured): the
  /// fastest repetition, and the lowest percentiles of any repetition.
  kFastest,
};

/// The timed repetitions of one untraced run.
struct Repetitions {
  static constexpr std::size_t kSegments = 1000;
  Reduce reduce = Reduce::kEnvelope;
  std::vector<double> segment_s;   ///< least time of each segment
  std::vector<double> latency_us;  ///< kEnvelope: least value per sample
  std::vector<double> p50_us, p99_us;  ///< kFastest: per repetition
  std::vector<double> wall_s;      ///< each repetition's own wall time
  std::size_t samples = 0;         ///< latency samples per repetition

  /// Record one repetition: `marks_ns` are clock readings taken at the
  /// same points of the work in every repetition, from its start to its
  /// end; `latency_us` has one sample per job or request, in order.
  void add(const std::vector<std::int64_t>& marks_ns,
           const std::vector<double>& latency_us);
  std::size_t count() const { return wall_s.size(); }
  /// The four timing metrics for `jobs` jobs and `requests` requests per
  /// repetition, plus the repetition and sample counts.
  void emit(Report& report, double jobs, double requests) const;
};

/// Metric value the result format requires on a workload where the metric
/// has no meaning (see README.md, "Metrics that do not apply").
inline constexpr double kNotApplicable = 1.0;

Report run_replay_workload(const RunOptions& options);
Report run_allocd_workload(const RunOptions& options);

}  // namespace e2ebench
