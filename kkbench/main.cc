// kkbench workload binary: runs one named workload in this single-threaded
// process, prints every metric by name and unit plus a machine/noise record,
// and ends stdout with one JSON result line.
//
//   kkbench --workload node2vec|deepwalk_churn|ppr_serve --seed N
//           --seconds S --trace 0|1 [--state-dir DIR]
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "kkbench/bench.h"
#include "src/util/cache_geometry.h"

namespace kkbench {

using knightking::CacheGeometry;
using knightking::obs::TraceRecorder;

namespace {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuJiffies ReadProcStat() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return ParseProcStatCpuLine(line);
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 0;
  }
  return CPU_COUNT(&set);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: kkbench --workload node2vec|deepwalk_churn|ppr_serve --seed N "
               "--seconds S --trace 0|1 [--state-dir DIR]\n");
  return 2;
}

// Seconds this thread has waited on a run queue (second field of
// /proc/thread-self/schedstat): time it was runnable but preempted.
double RunQueueWaitSeconds() {
  std::ifstream in("/proc/thread-self/schedstat");
  uint64_t on_cpu_ns = 0, wait_ns = 0;
  in >> on_cpu_ns >> wait_ns;
  return static_cast<double>(wait_ns) * 1e-9;
}

}  // namespace

void NoiseWindow::Start() {
  wall_.Restart();
  cpu_start_ = ProcessCpuSeconds();
  runq_start_ = RunQueueWaitSeconds();
  jiffies_start_ = ReadProcStat();
}

void NoiseWindow::Stop() {
  wall_s_ = wall_.Seconds();
  cpu_s_ = ProcessCpuSeconds() - cpu_start_;
  runq_wait_s_ = RunQueueWaitSeconds() - runq_start_;
  steal_frac_ = StealShare(jiffies_start_, ReadProcStat());
}

void NoiseWindow::NoteTo(Outcome* out) const {
  out->Note("wall_s", Num(wall_s_));
  out->Note("cpu_s", Num(cpu_s_));
  out->Note("runq_wait_s", Num(runq_wait_s_));
  out->Note("steal_frac", Num(steal_frac_));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return 0;
}

namespace {

// Digest of this executable's bytes: a rebuilt benchmark or engine starts a
// fresh set of stored digests instead of comparing against another build's.
std::string BinaryId() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  Digest d;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    d.AddBytes(buf, static_cast<size_t>(in.gcount()));
  }
  return d.Hex();
}

}  // namespace

bool MatchesEarlierRun(const Args& args, const std::string& key, const std::string& value) {
  if (args.state_dir.empty()) {
    return true;
  }
  namespace fs = std::filesystem;
  static const std::string binary_id = BinaryId();
  const fs::path dir = fs::path(args.state_dir) / "digests" / binary_id;
  std::error_code ec;
  fs::create_directories(dir, ec);
  // --seconds is part of the key: it sets how many queries ppr_serve answers.
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%g", args.seconds);
  const fs::path file = dir / (args.workload + "-" + std::to_string(args.seed) + "-" + seconds +
                               "s-" + key + ".txt");
  std::ifstream in(file);
  std::string stored;
  if (in && std::getline(in, stored)) {
    return stored == value;
  }
  std::ofstream out(file);
  out << value << "\n";
  return true;
}

std::vector<double> SpanSeconds(const std::vector<TraceRecorder::Event>& events,
                                const char* name) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.pid == ScopedSpan::kBenchLane && std::strcmp(e.name, name) == 0) {
      out.push_back(e.dur);
    }
  }
  return out;
}

void WriteTrace(const Args& args, const TraceRecorder& trace) {
  if (args.state_dir.empty()) {
    return;
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args.state_dir) / "traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::ofstream out(dir / (args.workload + "-" + std::to_string(args.seed) + ".json"));
  out << trace.ToChromeJson();
}

namespace {

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(value);
      have_seconds = args.seconds > 0.0;
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (std::strcmp(flag, "--state-dir") == 0) {
      args.state_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  Outcome outcome;
  if (args.workload == "node2vec") {
    outcome = RunNode2Vec(args);
  } else if (args.workload == "deepwalk_churn") {
    outcome = RunDeepWalkChurn(args);
  } else if (args.workload == "ppr_serve") {
    outcome = RunPprServe(args);
  } else {
    std::fprintf(stderr, "kkbench: unknown workload %s\n", args.workload.c_str());
    return Usage();
  }

  const int threads = ThreadCount();
  if (threads > 1) {
    outcome.Fail("workload process ran " + std::to_string(threads) + " threads");
  }
  if (outcome.attempted == 0) {
    outcome.Fail("no operation attempted");
    outcome.attempted = 1;
    outcome.failed = 1;
  }

  // Human-readable: every metric by name and unit.
  std::printf("%-40s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& m : outcome.metrics) {
    std::printf("%-40s %20.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-40s %20.6f  %s\n", "failed_frac",
              static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted),
              "ratio");
  for (const std::string& e : outcome.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }

  // Machine and noise record.
  const CacheGeometry geo = CacheGeometry::Detect();
  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": " << Quote(args.workload) << ", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"usable_cpus\": " << UsableCpus()
      << ", \"l1d_bytes\": " << geo.l1d_bytes << ", \"l2_bytes\": " << geo.l2_bytes
      << ", \"llc_bytes\": " << geo.llc_bytes
      << ", \"cache_detected\": " << (geo.detected ? "true" : "false")
      << ", \"threads_used\": " << threads
      << ", \"failed_frac\": "
      << Num(static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted));
  for (const auto& [key, value] : outcome.record) {
    rec << ", " << Quote(key) << ": " << value;
  }
  rec << ", \"errors\": [";
  for (size_t i = 0; i < outcome.errors.size(); ++i) {
    rec << (i > 0 ? ", " : "") << Quote(outcome.errors[i]);
  }
  rec << "]}}";
  std::printf("%s\n", rec.str().c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    out << (i > 0 ? ", " : "") << Quote(m.name) << ": {\"value\": " << Num(m.value)
        << ", \"unit\": " << Quote(m.unit) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace kkbench

int main(int argc, char** argv) { return kkbench::Main(argc, argv); }
