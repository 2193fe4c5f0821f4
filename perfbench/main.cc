// perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                  --server PATH --work-dir DIR
//
// Runs one benchmark workload against the real ptk_server (see README.md
// in this directory) and prints the result as the last stdout line.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver.h"

int main(int argc, char** argv) {
  // A server that dies mid-run must fail the run, not kill the driver.
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--server") {
      options.server_binary = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.workload.empty() || options.server_binary.empty() ||
      options.work_dir.empty() || !(options.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--server PATH --work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  return perfbench::RunBenchmark(options);
}
