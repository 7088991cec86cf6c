/// \file main.cpp
/// \brief The benchmark binary.
///
///   perfbench --workload catalog|halo|farm|bulk --seed N --seconds S
///             --trace 0|1 [--quick] [--spans-out FILE]
///             [--commit ID] [--source-digest HEX]
///
/// Prints an environment stamp line, then, as its last line, one JSON
/// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
/// the end-to-end metrics with every tooling layer off; --trace 1 reports
/// the per-layer metrics and writes the benchmark's spans to --spans-out.
/// --quick shrinks every size for the smoke check.

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "probes.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string spans_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

const std::map<std::string, std::function<std::unique_ptr<Workload>()>>& factories() {
  static const std::map<std::string, std::function<std::unique_ptr<Workload>()>> f{
      {"catalog", make_catalog},
      {"halo", make_halo},
      {"farm", make_farm},
      {"bulk", make_bulk},
  };
  return f;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else if (k == "--quick") a.quick = true;
    else if (k == "--spans-out") a.spans_out = value();
    else if (k == "--commit") a.commit = value();
    else if (k == "--source-digest") a.source_digest = value();
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (factories().count(a.workload) == 0) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The machine and build this record came from.
std::string env_stamp(const Args& a) {
  utsname u{};
  uname(&u);
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::ostringstream os;
  os << "{\"commit\": " << quoted(a.commit)
     << ", \"source_digest\": " << quoted(a.source_digest)
     << ", \"compiler\": " << quoted(std::string("g++ ") + __VERSION__)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
     << ", \"kernel\": " << quoted(std::string(u.sysname) + " " + u.release)
     << ", \"date\": " << quoted(date) << ", \"workload\": " << quoted(a.workload)
     << ", \"seed\": " << a.seed << ", \"trace\": " << (a.trace ? 1 : 0) << "}";
  return os.str();
}

/// Runs episodes until \p seconds of wall time have passed.
void run_window(Workload& w, Mode mode, double seconds, OpStats& s) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    w.episode(mode, s);
    s.end_episode();
  } while (now_ns() < end);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ops_per_s(const OpStats& s) {
  return static_cast<double>(s.attempted - s.failed) / s.window_s;
}

/// End-to-end run: every tooling layer off.
std::vector<Metric> end_to_end(const Args& a, OpStats& s) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < (a.quick ? 1 : 5); ++k) {
    const std::uint64_t t0 = now_ns();
    w = factories().at(a.workload)();
    w->setup(a.seed, a.quick);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  run_window(*w, Mode::kPlain, a.seconds, s);
  if (a.quick) s.end_episode(/*force=*/true);
  if (s.blocks.empty()) throw std::runtime_error("the window closed no block of ops");
  auto over_blocks = [&](double Block::*field) {
    std::vector<double> v;
    for (const Block& b : s.blocks) v.push_back(b.*field);
    return median(v);
  };
  return {
      {"ops_per_s", over_blocks(&Block::ops_per_s), "1/s"},
      {"op_p50_ms", over_blocks(&Block::p50_ms), "ms"},
      {"op_p90_ms", over_blocks(&Block::p90_ms), "ms"},
      {"op_p99_ms", over_blocks(&Block::p99_ms), "ms"},
      {"payload_GBps", over_blocks(&Block::payload_GBps), "GB/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Traced run: the per-layer metrics.
std::vector<Metric> per_layer(const Args& a, OpStats& s) {
  std::vector<Metric> out;
  std::unique_ptr<Workload> w = factories().at(a.workload)();
  w->setup(a.seed, a.quick);

  // Tracing overhead on the selected workload: alternate untraced and
  // traced slices so drift hits both sides alike.
  constexpr int kSlices = 6;
  OpStats plain;
  OpStats traced;
  for (int i = 0; i < kSlices; ++i) {
    if (i % 2 == 0) {
      run_window(*w, Mode::kPlain, a.seconds * 0.6 / kSlices, plain);
    } else {
      {
        Recording rec;
        run_window(*w, Mode::kTraced, a.seconds * 0.6 / kSlices, traced);
      }
      (void)collect();
    }
  }
  s.attempted = plain.attempted + traced.attempted;
  s.failed = plain.failed + traced.failed;
  out.push_back({"trace.overhead_pct", (1.0 - ops_per_s(traced) / ops_per_s(plain)) * 100.0, "%"});

  // Exact counts: two traced passes over the same op set must agree.
  const Counts c1 = w->count_pass();
  const Counts c2 = w->count_pass();
  if (!(c1 == c2) || c1.ops <= 0) {
    throw std::runtime_error("exact counts differ between two traced passes");
  }
  const double ops = static_cast<double>(c1.ops);
  out.push_back({"mp.msgs_per_op", static_cast<double>(c1.msgs) / ops, "msgs/op"});
  out.push_back({"mp.bytes_per_op", static_cast<double>(c1.bytes) / ops, "B/op"});
  out.push_back({"mp.rdv.parked_per_op", static_cast<double>(c1.rdv_parked) / ops, "parks/op"});
  out.push_back({"mp.payload_bytes_copied_per_op", static_cast<double>(c1.bytes_copied) / ops,
                 "B/op"});

  // Each workload's own layers, from fixed-size passes.
  for (const auto& [name, make] : factories()) {
    std::unique_ptr<Workload> owner;
    Workload* x = w.get();
    if (name != a.workload) {
      owner = make();
      owner->setup(a.seed, a.quick);
      x = owner.get();
    }
    x->layer_metrics(out);
  }
  {
    Recording rec;
    floor_probes(out, a.quick);
  }
  (void)collect();
  return out;
}

void write_spans(const std::string& path, const std::string& env) {
  const Archive a = archived();
  std::ofstream f(path);
  f << "{\"env\": " << env << ",\n \"spans_collected\": " << a.total
    << ", \"spans_dropped\": " << spans_dropped() << ",\n \"self_times\": [";
  for (std::size_t i = 0; i < a.self.size(); ++i) {
    const SelfTime& t = a.self[i];
    f << (i ? ",\n  " : "\n  ") << "{\"name\": " << quoted(t.name) << ", \"count\": " << t.count
      << ", \"total_ms\": " << number(t.total_ms) << ", \"self_ms\": " << number(t.self_ms) << "}";
  }
  f << "],\n \"spans\": [";
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    const SpanRec& s = a.spans[i];
    f << (i ? ",\n  " : "\n  ") << "[" << quoted(s.name) << ", " << s.id << ", " << s.parent
      << ", " << s.op << ", " << s.begin_ns << ", " << s.end_ns << "]";
  }
  f << "]}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

int run(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const std::string env = env_stamp(a);
  OpStats s;
  const std::vector<Metric> metrics = a.trace ? per_layer(a, s) : end_to_end(a, s);
  if (a.trace && !a.spans_out.empty()) write_spans(a.spans_out, env);

  std::ostringstream os;
  os << "{\"correct\": " << (s.failed == 0 ? "true" : "false") << ", \"attempted\": " << s.attempted
     << ", \"failed\": " << s.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": " << number(metrics[i].value)
       << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  os << "}}";
  std::cout << "{\"env\": " << env << "}\n" << os.str() << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
