// perfbench: the deployment benchmark of the CCQ serving stack.
//
//   perfbench --workload tcp-closed|open-mixed|engine-batch --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//   perfbench --describe
//
// With --trace 0 a run prints every end-to-end metric; with --trace 1 it
// runs the workload untraced, then traced (spans around each public call,
// kept in memory and written to DIR at exit), then the layer probes, and
// prints every per-layer metric with the tracing overhead.  The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics.  Any output mismatch fails the run (exit code 1).
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload tcp-closed|open-mixed|engine-batch"
               " --seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "       perfbench --describe\n";
  return 2;
}

void describe() {
  auto list = [](const std::vector<perfbench::MetricInfo>& metrics) {
    std::string out = "[";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out += std::string(i == 0 ? "" : ",") + "\n    {\"name\": \"" +
             metrics[i].name + "\", \"unit\": \"" + metrics[i].unit +
             "\", \"better\": \"" + metrics[i].better + "\"}";
    }
    return out + "\n  ]";
  };
  std::cout << "{\n  \"end_to_end\": " << list(perfbench::end_to_end_metrics())
            << ",\n  \"per_layer\": " << list(perfbench::per_layer_metrics())
            << ",\n  \"reported\": " << list(perfbench::reported_metrics())
            << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  options.work_dir = ".";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--describe") {
        describe();
        return 0;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value != "0";
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage();
      }
    }
    if (options.seconds <= 0.0) return usage();
    std::filesystem::create_directories(options.work_dir);

    perfbench::Report report;
    if (workload == "tcp-closed") {
      perfbench::run_tcp_closed(options, report);
    } else if (workload == "open-mixed") {
      perfbench::run_open_mixed(options, report);
    } else if (workload == "engine-batch") {
      perfbench::run_engine_batch(options, report);
    } else {
      return usage();
    }
    if (options.trace) perfbench::fill_unreached_layers(report);
    std::vector<std::string> order;
    for (const auto& m : options.trace ? perfbench::per_layer_metrics()
                                       : perfbench::end_to_end_metrics()) {
      order.push_back(m.name);
    }
    report.print(order);
    return report.mismatches == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
