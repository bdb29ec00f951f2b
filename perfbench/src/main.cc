// perfbench: runs one benchmark workload and prints its report as the last
// line of standard output (one JSON object).
//
//   perfbench --workload <train_skew|serve_mixed|serve_tcp> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_skew|serve_mixed|"
               "serve_tcp> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return Usage();

  pb::Report report;
  pb::RecordHost(options, &report);
  pb::DeclareLayers(&report);
  if (options.trace) mkdir(options.out_dir.c_str(), 0755);
  if (options.workload == "train_skew") {
    pb::RunTrainSkew(options, &report);
  } else if (options.workload == "serve_mixed") {
    pb::RunServeMixed(options, &report);
  } else if (options.workload == "serve_tcp") {
    pb::RunServeTcp(options, &report);
  } else {
    return Usage();
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
