// Repo benchmark program. Run from the checkout root (perfbench/run.py does):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test [--seed N]
//
// Prints the run manifest as one JSON line, then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exit status 0 whenever a result was printed, 2 on a usage error, 1 when
// the run could not complete. Scratch files live under .bench_build/.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "args.hpp"
#include "workloads.hpp"

namespace {

using perfbench::WorldSpec;

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

WorldSpec calibrated_spec(unsigned nproc) {
  WorldSpec spec;
  spec.scale = 0.02;
  spec.ues = 20'000;
  spec.days = 2;
  spec.policy = tl::policy::PolicyKind::kCalibratedBaseline;
  spec.threads = std::min(4u, nproc);
  spec.wal = true;
  return spec;
}

WorldSpec dense_lb_spec(unsigned nproc) {
  WorldSpec spec;
  spec.scale = 0.1;
  spec.ues = 10'000;
  spec.days = 2;
  spec.policy = tl::policy::PolicyKind::kLoadBalancing;
  spec.threads = std::min(2u, nproc);
  spec.supervised = true;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  try {
    ctx.args = parse_args(argc, argv);
  } catch (const UsageError& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());

  try {
    if (ctx.args.self_test) return self_test(ctx.args.seed) ? 0 : 1;

    if (!std::filesystem::is_directory("src")) {
      throw std::runtime_error{"run from the checkout root (no src/ here)"};
    }
    ScratchDir scratch{".bench_build/work-" + std::to_string(::getpid())};
    ctx.work_dir = scratch.path;
    ctx.trace_dir = ".bench_build/traces";

    Outcome out;
    if (ctx.args.workload == "study-calibrated") {
      out = run_study(ctx, calibrated_spec(ctx.nproc));
    } else if (ctx.args.workload == "study-dense-lb") {
      out = run_study(ctx, dense_lb_spec(ctx.nproc));
    } else if (ctx.args.workload == "serve-follow") {
      out = run_serve_follow(ctx);
    } else {
      std::cerr << "perfbench: unknown workload '" << ctx.args.workload
                << "' (study-calibrated, study-dense-lb, serve-follow)\n";
      return 2;
    }
    std::cout << "{\"manifest\": " << out.manifest.to_json() << "}\n";
    std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
              << ", \"metrics\": " << out.metrics.to_json() << "}" << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
