// actyp_perfbench: the simulator cost benchmark's measuring program.
//
//   actyp_perfbench run   <config>   end-to-end run, tracing off
//   actyp_perfbench trace <config>   traced run (per-layer numbers)
//
// <config> holds the generated workload as "key = value" lines; run.py
// writes it from the workload name and seed. The program prints one
// JSON object of raw observations on stdout and exits 0, or prints a
// message on stderr and exits 2 on bad usage or a failed run.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s run|trace <config>\n", argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  if (mode != "run" && mode != "trace") {
    std::fprintf(stderr, "unknown mode '%s' (run|trace)\n", mode.c_str());
    return 2;
  }
  std::ifstream file(argv[2]);
  if (!file) {
    std::fprintf(stderr, "cannot read config %s\n", argv[2]);
    return 2;
  }
  std::stringstream text;
  text << file.rdbuf();
  auto config = actyp::Config::Parse(text.str());
  if (!config.ok()) {
    std::fprintf(stderr, "bad config %s: %s\n", argv[2],
                 config.status().ToString().c_str());
    return 2;
  }
  try {
    const std::string result = mode == "run"
                                   ? perfbench::RunEndToEnd(*config)
                                   : perfbench::RunTraced(*config);
    std::printf("%s\n", result.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "actyp_perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
