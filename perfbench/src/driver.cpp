// perfbench_driver — runs one phase of one benchmark workload and prints
// its results as a single JSON object on stdout.
//
//   perfbench_driver --workload NAME --seed N --phase PHASE [--budget-s S]
//
// Phases (run.py runs each in its own process so that every process's
// peak resident memory belongs to one kind of run):
//   nominal   untraced runs at the nominal rate: the first gives the
//             simulated metrics; quarter-size repeats at the same seed,
//             until --budget-s seconds of event loop have passed, give the
//             host time per op (the fastest repeat; every repeat must
//             reproduce the others exactly); kSetups extra full-size
//             set-ups give the set-up time (median)
//   overload  one untraced run at the overload rate (capacity)
//   traced    one run at the nominal rate with the causal tracer attached
//
// Exit status: 0 when every correctness gate held, 1 when one failed
// (the JSON still reports which), 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "metrics.hpp"
#include "runner.hpp"
#include "util/flags.hpp"

namespace {

using namespace perfbench;

/// Size of the nominal phase's host-timing repeats relative to the first
/// run: many short repeats are more likely to catch a quiet stretch of a
/// shared machine than a few long ones.
constexpr double kRepeatScale = 0.25;

/// Full-size set-ups the nominal phase times on their own (setup_s median).
constexpr int kSetups = 8;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Appends `"name": {k: v, ...}` to a JSON object under construction.
void object(std::ostringstream& out, const char* name, const Metrics& m) {
  out << "\"" << name << "\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out << (i ? ", " : "") << "\"" << m[i].first << "\": " << num(m[i].second);
  }
  out << "}";
}

Metrics host_metrics(const RunResult& r) {
  const auto ops = static_cast<double>(r.completed);
  return {{"setup_s", r.host.setup_s},
          {"plan_s", r.host.plan_s},
          {"loop_s", r.host.loop_s},
          {"report_s", r.host.report_s},
          {"us_per_op", ratio(r.host.loop_s * 1e6, ops)},
          {"ns_per_event", ratio(r.host.loop_s * 1e9,
                                 static_cast<double>(r.counters.events))}};
}

void usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N --phase "
               "nominal|overload|traced [--budget-s S]\n";
}

}  // namespace

int main(int argc, char** argv) try {
  optsync::util::Flags flags(argc, argv);
  flags.allow_only({"workload", "seed", "phase", "budget-s"});
  const Workload* w = find_workload(flags.get("workload", ""));
  const std::string phase = flags.get("phase", "");
  const std::int64_t seed = flags.get_int("seed", -1);
  const double budget_s = flags.get_double("budget-s", 0.0);
  if (w == nullptr || seed < 0 || budget_s < 0.0 ||
      (phase != "nominal" && phase != "overload" && phase != "traced")) {
    usage();
    return 2;
  }

  RunSpec spec;
  spec.workload = w;
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.rate = phase == "overload" ? Rate::kOverload : Rate::kNominal;
  spec.traced = phase == "traced";

  const RunResult first = run_once(spec);
  const Gates& gates = first.gates;
  std::uint64_t issued = first.issued;
  std::uint64_t completed = first.completed;
  Metrics host = host_metrics(first);

  // Nominal: repeat at the same seed, on a shorter schedule, for host
  // time. The first run warms the allocator and the caches, so host
  // figures come from the repeats; two repeats that do not reproduce each
  // other's simulation break determinism.
  bool deterministic = true;
  int reps = 1;
  if (phase == "nominal") {
    RunSpec repeat = spec;
    repeat.scale = kRepeatScale;
    std::vector<double> setup, plan, loop, report;
    std::uint64_t reference = 0;
    std::uint64_t events = 0;
    double spent = 0;
    do {
      const RunResult again = run_once(repeat);
      if (reference == 0) reference = again.fingerprint;
      deterministic = deterministic && again.fingerprint == reference;
      loop.push_back(again.host.loop_s);
      report.push_back(again.host.report_s);
      issued += again.issued;
      completed += again.completed;
      spent += again.host.loop_s;
      events = again.counters.events;
      ++reps;
    } while (reps < 3 || spent < budget_s);  // two repeats at least
    for (int i = 0; i < kSetups; ++i) {
      double plan_s = 0;
      setup.push_back(time_setup(spec, &plan_s));
      plan.push_back(plan_s);
    }
    // The fastest repeat: on a shared machine other tenants only ever add
    // time, in bursts, so the minimum of many short repeats is far steadier
    // than their median.
    const double loop_min = *std::min_element(loop.begin(), loop.end());
    const auto ops = static_cast<double>(planned_requests(repeat));
    host = {{"setup_s", median(setup)},
            {"plan_s", median(plan)},
            {"loop_s", loop_min},
            {"report_s", median(report)},
            {"us_per_op", ratio(loop_min * 1e6, ops)},
            {"ns_per_event",
             ratio(loop_min * 1e9, static_cast<double>(events))}};
  }
  // Event loop of the process's first run, comparable across phases.
  host.emplace_back("first_loop_s", first.host.loop_s);
  host.emplace_back("peak_rss_mb", peak_rss_mb());
  host.emplace_back("reps", reps);

  const bool ok = gates.ok() && deterministic;
  std::ostringstream out;
  out << "{\"workload\": \"" << w->name << "\", \"phase\": \"" << phase
      << "\", \"seed\": " << seed << ", \"ok\": " << (ok ? "true" : "false")
      << ", \"deterministic\": " << (deterministic ? "true" : "false")
      << ", \"gate_failures\": \"" << gates.failures() << "\""
      << ", \"issued\": " << issued << ", \"completed\": " << completed
      << ", \"fingerprint\": \"" << std::hex << first.fingerprint << std::dec
      << "\", ";
  object(out, "sim", sim_metrics(*w, first));
  out << ", ";
  object(out, "layers", layer_metrics(first));
  out << ", ";
  object(out, "host", host);
  out << "}";
  std::cout << out.str() << std::endl;
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
