// Guardrail-plane benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--root <checkout>] [--work-dir <dir>] [--source-id <id>]
//
// Workloads: linnos-drift, agent-churn, callout-storm
// (perfbench/README.md describes each). Prints one host/sample JSON line and
// then the result line {"correct", "attempted", "failed", "metrics"}. Exit
// code 0 whenever a result line was printed; 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "driver/harness.h"
#include "src/support/logging.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--root <dir>] [--work-dir <dir>] "
               "[--source-id <id>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }
  if (args.work_dir.empty()) {
    args.work_dir = args.root + "/.bench_build/work";
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    return Usage(("cannot create work dir " + args.work_dir).c_str());
  }

  InstallCountingLogSink();
  Outcome outcome;
  if (args.workload == "linnos-drift") {
    outcome = RunLinnosDrift(args);
  } else if (args.workload == "agent-churn") {
    outcome = RunAgentChurn(args);
  } else if (args.workload == "callout-storm") {
    outcome = RunCalloutStorm(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (outcome.attempted == 0) {
    outcome.Fail("no callout completed");
  }
  PrintOutcome(args, outcome);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
