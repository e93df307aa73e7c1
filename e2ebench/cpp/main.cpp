// End-to-end benchmark program (README.md in this directory).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--scale full|tiny] [--inject none|cost|drop-reply]
//            [--socket-dir DIR]
//
// Prints one JSON object on stdout: the checks it ran, the attempted and
// failed operation counts, the metrics with their units, and the facts
// recorded beside them. run.py builds this program, runs it and turns the
// object into the benchmark's result line.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

extern char** environ;

namespace e2ebench {
namespace {

using commsched::json_number;
using commsched::json_quote;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] "
               "[--inject none|cost|drop-reply] [--socket-dir DIR]\n";
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      const auto v = commsched::parse_int(value);
      if (!v || *v < 0) usage("bad --seed " + value);
      o.seed = static_cast<std::uint64_t>(*v);
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = commsched::parse_double(value);
      if (!v || !(*v > 0.0)) usage("bad --seconds " + value);
      o.seconds = *v;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (arg == "--scale") {
      if (value != "full" && value != "tiny") usage("bad --scale " + value);
      o.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (arg == "--inject") {
      if (value == "none") o.inject = Inject::kNone;
      else if (value == "cost") o.inject = Inject::kCost;
      else if (value == "drop-reply") o.inject = Inject::kDropReply;
      else usage("bad --inject " + value);
    } else if (arg == "--socket-dir") {
      o.socket_dir = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  return o;
}

// Hermetic configuration: the library reads COMMSCHED_* (audit level,
// runtime clamps, worker threads, campaign knobs) and JOBAWARE from the
// environment. Clear every one of them, then pin the ones on the measured
// path to the values the workloads also pass explicitly.
std::string pin_environment() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    if (name.starts_with("COMMSCHED_") || name == "JOBAWARE")
      found.push_back(name);
  }
  for (const std::string& name : found) ::unsetenv(name.c_str());
  ::setenv("COMMSCHED_AUDIT", "off", 1);
  ::setenv("COMMSCHED_RUNTIME_CLAMP", "0.05:20", 1);
  ::setenv("COMMSCHED_THREADS", "1", 1);
  std::string cleared;
  for (const std::string& name : found) {
    if (!cleared.empty()) cleared += ',';
    cleared += name;
  }
  return cleared;
}

void print(const RunOptions& o, const Report& r, const std::string& cleared) {
  std::uint64_t attempted = 0, failed = 0;
  for (const Check& c : r.checks) {
    attempted += c.attempted;
    failed += c.failed;
  }
  std::ostringstream out;
  out << "{\"workload\":" << json_quote(o.workload) << ",\"seed\":" << o.seed
      << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"scale\":" << json_quote(o.scale == Scale::kTiny ? "tiny" : "full")
      << ",\"compiler\":" << json_quote(__VERSION__)
      << ",\"build_type\":" << json_quote(E2EBENCH_BUILD_TYPE)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"env_pinned\":"
      << json_quote("COMMSCHED_AUDIT=off COMMSCHED_RUNTIME_CLAMP=0.05:20 "
                    "COMMSCHED_THREADS=1")
      << ",\"env_cleared\":" << json_quote(cleared) << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    out << (i ? "," : "") << "{\"name\":" << json_quote(c.name)
        << ",\"attempted\":" << c.attempted << ",\"failed\":" << c.failed
        << ",\"detail\":" << json_quote(c.detail) << "}";
  }
  out << "],\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  bool first = true;
  const auto metric = [&](const std::string& name, double value,
                          const std::string& unit) {
    out << (first ? "" : ",") << json_quote(name) << ":{\"value\":"
        << json_number(value) << ",\"unit\":" << json_quote(unit) << "}";
    first = false;
  };
  for (const auto& [name, vu] : r.metrics) metric(name, vu.first, vu.second);
  if (!o.trace)
    metric("success_frac",
           attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted),
           "ratio");
  out << "},\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i)
    out << (i ? "," : "") << json_quote(r.info[i].first) << ":"
        << json_quote(r.info[i].second);
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  const RunOptions options = parse_args(argc, argv);
  const std::string cleared = pin_environment();
  try {
    Report report;
    if (options.workload.starts_with("replay-"))
      report = run_replay_workload(options);
    else if (options.workload == "allocd-closed")
      report = run_allocd_workload(options);
    else
      usage("unknown workload " + options.workload);
    print(options, report, cleared);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
