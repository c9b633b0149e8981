// Parallel campaign sweep driver: the NFTAPE "external management and
// control framework" role, scaled out. Parses the command line into one
// orchestrator::CampaignFile — a --spec file as loaded, or the grid flags
// (fault × direction × replicate, optionally steered by --strategy)
// lowered to a one-target file — and runs it through
// adaptive::execute_campaign, one private simulated testbed per run.
//
//   ./build/examples/run_sweep                          # default 32-run grid
//   ./build/examples/run_sweep --workers 1 --out a.jsonl
//   ./build/examples/run_sweep --workers 8 --out b.jsonl
//   cmp a.jsonl b.jsonl                                 # byte-identical
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/execute.hpp"
#include "harness.hpp"
#include "monitor/feed.hpp"
#include "monitor/service.hpp"
#include "nftape/fabric.hpp"
#include "nftape/medium.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/jsonl.hpp"
#include "orchestrator/repro.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/shard.hpp"
#include "orchestrator/sweep.hpp"
#include "scenario/minimizer.hpp"
#include "scenario/scenario.hpp"

using namespace hsfi;

namespace {

void usage(std::FILE* to = stdout) {
  std::fprintf(
      to,
      "usage: run_sweep [options]\n"
      "  --workers N      worker threads (default: hardware concurrency)\n"
      "  --snapshots on|off\n"
      "                   fork every run of a (topology, workload, medium)\n"
      "                   cell from one settled snapshot instead of\n"
      "                   re-simulating boot + mapping (default: off; the\n"
      "                   JSONL records are byte-identical either way)\n"
      "  --seed S         base seed; per-run seeds derive from it (default 1)\n"
      "  --replicates R   seed replicates per grid point (default 2)\n"
      "  --duration-ms D  measurement window per run (default 60)\n"
      "  --out FILE       write JSONL records there durably, with a\n"
      "                   FILE.ckpt checkpoint sidecar (default: stdout)\n"
      "  --timing         include per-run wall_ms in the JSONL (wall time\n"
      "                   is nondeterministic; omit for byte-comparable runs)\n"
      "  --bench-out FILE write sweep throughput in the BENCH_sim_kernel.json\n"
      "                   schema ({bench, metric, value, unit, commit})\n"
      "  --medium M       network under test: myrinet (default) or fc; picks\n"
      "                   the fabric realization and the fault axis\n"
      "  --faults a,b,c   restrict the fault axis (see --list)\n"
      "  --list           print the selected medium's fault axis and exit\n"
      "  --list-faults    like --list but with one-line descriptions\n"
      "  --list-scenarios print the registered misbehavior scenarios and exit\n"
      "  --scenario S     arm the named protocol-misbehavior scenario over\n"
      "                   every run's measurement window; composes with the\n"
      "                   fault axis and --strategy, and step firings count\n"
      "                   as injections\n"
      "  --emit-repro F   with --scenario: delta-debug (ddmin) one reference\n"
      "                   run's step sequence down to a minimal reproducer of\n"
      "                   its manifestation class, verify it, and write a\n"
      "                   replayable trace to F\n"
      "  --replay F       re-execute a trace written by --emit-repro and\n"
      "                   compare its JSONL record byte-for-byte\n"
      "  --strategy S     closed-loop campaign instead of the static grid:\n"
      "                   fixed (the static grid through the controller),\n"
      "                   bisect (binary-search the manifestation threshold\n"
      "                   on the udp-interval axis per fault x direction\n"
      "                   cell), or coverage (replicate where rare\n"
      "                   manifestation classes still lack observations)\n"
      "  --tolerance T    bisect: stop once the threshold bracket is <= T\n"
      "                   microseconds wide (default 24)\n"
      "  --max-rounds N   adaptive round cap (default 12)\n"
      "  --target-count N coverage: observations wanted per manifestation\n"
      "                   class per cell (default 5)\n"
      "  --monitor        stream every completed run into the online analysis\n"
      "                   service and print its per-cell table (runs, Wilson\n"
      "                   95%% manifestation CI, class mix, drift flags)\n"
      "  --monitor-interval-ms N\n"
      "                   with --monitor: also re-render the table at most\n"
      "                   every N ms while the campaign runs\n"
      "  --early-cancel   with --strategy: skip a cell's remaining runs in a\n"
      "                   round once the strategy declares them redundant\n"
      "                   (records become outcome=skipped and are no longer\n"
      "                   byte-stable across worker counts)\n"
      "  --dry-run        print the expanded grid (static) or the round-0\n"
      "                   batch (adaptive) without executing anything\n"
      "  --spec FILE      declarative campaign file (JSON: targets, media,\n"
      "                   fault subsets, grids, strategy) in place of the\n"
      "                   grid flags; the flags and --spec run the same\n"
      "                   executor\n"
      "  --shard K/N      with --spec --out: execute only shard K of N\n"
      "                   (seed-keyed ownership); writes FILE.shardKofN\n"
      "  --merge N        with --spec --out: merge the N shard files into\n"
      "                   --out, byte-identical to a single-process run\n"
      "  --resume         with --spec --out: continue after the last durable\n"
      "                   checkpoint batch (static) or round (strategy);\n"
      "                   refuses checkpoints from an edited spec\n"
      "  --batch N        with --spec: override the spec's checkpoint_batch\n"
      "  --crash-after-batches N\n"
      "                   test hook: append a torn record and hard-exit (as\n"
      "                   if SIGKILLed) after N durable batches/rounds\n");
}

/// A flag error: the message, then the usage text, on stderr. Returns the
/// exit code 1.
[[gnu::format(printf, 1, 2)]] int usage_error(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n\n");
  usage(stderr);
  return 1;
}

/// Re-renders the monitor table to stderr at most once per interval,
/// driven by run completions (no render thread; the runner serializes
/// sink callbacks, so the steady_clock read races with nothing).
class IntervalRenderer final : public orchestrator::RecordSink {
 public:
  IntervalRenderer(monitor::MonitorService& service, long interval_ms)
      : service_(service),
        interval_(std::chrono::milliseconds(interval_ms)),
        last_(std::chrono::steady_clock::now()) {}

  void on_record(const orchestrator::RunRecord&) override {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_ < interval_) return;
    last_ = now;
    std::fprintf(stderr, "\n%s",
                 service_.table("live monitor").render().c_str());
  }

 private:
  monitor::MonitorService& service_;
  std::chrono::steady_clock::duration interval_;
  std::chrono::steady_clock::time_point last_;
};

bool write_bench_out(const std::string& path,
                     const std::vector<orchestrator::RunRecord>& records,
                     double total_s) {
  std::uint64_t events = 0;
  std::uint64_t symbols = 0;
  for (const auto& r : records) {
    events += r.result.events_executed;
    symbols += r.result.symbols_sent;
  }
  const std::string commit = bench::current_commit();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << "[\n";
  bool first = true;
  const auto record = [&](const char* metric, double v, int decimals,
                          const char* unit) {
    if (!first) out << ",\n";
    first = false;
    orchestrator::JsonObject o;
    o.add("bench", "run_sweep");
    o.add("metric", metric);
    o.add_fixed("value", v, decimals);
    o.add("unit", unit);
    o.add("commit", commit);
    out << "  " << o.str();
  };
  record("events_per_sec_median",
         total_s > 0 ? static_cast<double>(events) / total_s : 0, 1,
         "events/s");
  record("wall_s_median", total_s, 6, "s");
  record("events", static_cast<double>(events), 0, "count");
  // Link symbols carried over the same runs: invariant under kernel-level
  // batching, so events-per-symbol trending down means the refactor is
  // removing scheduling overhead rather than simulating less traffic.
  record("symbols", static_cast<double>(symbols), 0, "count");
  record("runs", static_cast<double>(records.size()), 0, "count");
  out << "\n]\n";
  return static_cast<bool>(out);
}

/// The --crash-after-batches hook: append a torn (newline-less, truncated)
/// record to the data file — the worst-case in-flight write — then die
/// without unwinding, like a SIGKILL would. Resume must discard the tear.
[[noreturn]] void crash_torn(const std::string& data_file) {
  const int fd = ::open(data_file.c_str(), O_WRONLY | O_APPEND);
  if (fd >= 0) {
    const char torn[] = "{\"run\":9999999,\"name\":\"torn-by-cra";
    const ssize_t ignored = ::write(fd, torn, sizeof(torn) - 1);
    (void)ignored;
    ::close(fd);
  }
  _exit(9);
}

// ===========================================================================
// --emit-repro / --replay: reproducer minimization over a misbehavior
// scenario and byte-level trace replay (orchestrator/repro.hpp,
// scenario/minimizer.hpp).

/// Executes one expanded run through the production Runner (one worker,
/// cold fabric) — the byte-determinism reference an emitted trace stores
/// and a replay is compared against.
orchestrator::RunRecord reference_run(const orchestrator::RunSpec& run) {
  orchestrator::RunnerConfig rc;
  rc.workers = 1;
  return orchestrator::Runner(rc).run_all({run}).front();
}

int emit_repro(orchestrator::SweepSpec sweep, bool fault_filtered,
               const std::string& path) {
  // One-run grid: the first selected fault (fault-free baseline when
  // --faults was not given — the scenario alone must manifest), one
  // direction, one replicate.
  sweep.name = "repro";
  if (fault_filtered) {
    sweep.faults.resize(1);
  } else {
    sweep.faults = {{"baseline", std::nullopt, ""}};
  }
  sweep.directions = {orchestrator::FaultDirection::kBoth};
  sweep.intensities.clear();
  sweep.replicates = 1;
  const auto runs = orchestrator::expand(sweep);
  const auto& run = runs.front();

  const auto reference = reference_run(run);
  if (reference.outcome != orchestrator::RunOutcome::kOk) {
    std::fprintf(stderr, "reference run failed (%s): %s\n",
                 std::string(to_string(reference.outcome)).c_str(),
                 reference.error.c_str());
    return 1;
  }
  const std::string expect = orchestrator::dominant_class(reference.result);
  if (expect.empty()) {
    std::fprintf(stderr,
                 "scenario '%s' did not manifest under %s — nothing to "
                 "minimize\n",
                 run.campaign.scenario->name.c_str(),
                 run.campaign.name.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s manifests as %s; minimizing %zu steps\n",
               run.campaign.name.c_str(), expect.c_str(),
               run.campaign.scenario->steps.size());

  // ddmin probes fork from one settled snapshot: boot + mapping are paid
  // once, every candidate subset costs one measurement window.
  const auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
  fabric->start();
  fabric->settle(run.startup_settle);
  const auto snap = fabric->capture_snapshot();
  nftape::CampaignRunner probes(*fabric);
  const scenario::Minimizer::Execute execute =
      [&](const scenario::ScenarioSpec& candidate) {
        if (snap != nullptr) fabric->restore_snapshot(*snap);
        nftape::CampaignSpec spec = run.campaign;
        spec.scenario = candidate;
        return orchestrator::dominant_class(probes.run(spec));
      };
  const auto minimized =
      scenario::Minimizer().minimize(*run.campaign.scenario, expect, execute);
  if (!minimized.reproduced) {
    std::fprintf(stderr,
                 "forked re-execution did not reproduce %s; the full "
                 "%zu-step sequence is reported irreducible\n",
                 expect.c_str(), minimized.minimal.steps.size());
    return 1;
  }
  std::fprintf(stderr,
               "minimized %zu -> %zu steps in %zu runs (naive one-at-a-time "
               "removal needs >= %zu)\n",
               run.campaign.scenario->steps.size(),
               minimized.minimal.steps.size(), minimized.runs,
               run.campaign.scenario->steps.size() + 1);

  // Verification: the minimal sequence back through the production Runner
  // on a cold fabric — its record is what the trace stores and what a
  // replay must reproduce byte-for-byte.
  sweep.base.scenario = minimized.minimal;
  const auto verify = reference_run(orchestrator::expand(sweep).front());
  const std::string got = verify.outcome == orchestrator::RunOutcome::kOk
                              ? orchestrator::dominant_class(verify.result)
                              : std::string();
  if (got != expect) {
    std::fprintf(stderr,
                 "verification run classed '%s', expected '%s' — trace not "
                 "written\n",
                 got.c_str(), expect.c_str());
    return 1;
  }

  const auto trace = orchestrator::make_repro_trace(sweep, verify, expect);
  if (!(std::ofstream(path, std::ios::binary) << orchestrator::to_json(trace)
            << std::flush)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu-step reproducer for %s)\n", path.c_str(),
               minimized.minimal.steps.size(), expect.c_str());
  return 0;
}

int replay_trace(const std::string& path) {
  orchestrator::ReproTrace trace;
  orchestrator::SweepSpec sweep;
  orchestrator::apply_grid_defaults(sweep);
  try {
    trace = orchestrator::load_repro_trace(path);
    sweep = orchestrator::replay_sweep(trace, std::move(sweep));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const auto record = reference_run(orchestrator::expand(sweep).front());
  const std::string line = orchestrator::to_jsonl(record, false);
  if (line == trace.jsonl) {
    std::printf("reproduced %s: %s, record byte-identical\n",
                trace.name.c_str(),
                trace.expect.empty() ? "(no class)" : trace.expect.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "replay of %s DIVERGED\n  stored:   %s\n  replayed: %s\n",
               trace.name.c_str(), trace.jsonl.c_str(), line.c_str());
  return 2;
}

/// --dry-run: the expanded static grid (this shard's part of it), or each
/// target's round-0 batch, without executing anything. The static header
/// differs between the flag grid and a --spec file.
void print_plan(const orchestrator::CampaignFile& file, std::uint32_t shard,
                std::uint32_t of, bool from_flags) {
  if (!file.strategy) {
    const auto runs = orchestrator::expand_campaign(file);
    const auto& sweep = file.targets.front().sweep;
    if (from_flags) {
      std::printf("dry run: %zu runs (%zu faults x %zu directions x %zu reps)\n",
                  runs.size(), sweep.faults.size(), sweep.directions.size(),
                  sweep.replicates);
    } else {
      std::printf("dry run: %zu runs across %zu targets\n", runs.size(),
                  file.targets.size());
    }
    for (const auto& r : runs) {
      if (orchestrator::shard_of(r.seed, of) != shard) continue;
      std::printf("%zu %s seed=%llu\n", r.index, r.campaign.name.c_str(),
                  (unsigned long long)r.seed);
    }
    return;
  }
  for (const auto& target : file.targets) {
    const adaptive::Controller controller(
        adaptive::adaptive_spec(file, target, 0));
    const auto& workload = target.sweep.base.workload;
    const auto strategy = adaptive::make_strategy(
        *file.strategy, controller.cells(), target.sweep.replicates,
        workload.udp_interval, workload.burst_size);
    const auto round0 = controller.expand_round(strategy->next_round(0), 0,
                                                0, strategy->name());
    std::printf("%s: %zu runs in round 0 (strategy %s)\n",
                target.name.empty() ? "dry run" : target.name.c_str(),
                round0.size(), file.strategy->name.c_str());
    for (const auto& r : round0) {
      std::printf("%zu %s seed=%llu round=%u\n", r.index,
                  r.campaign.name.c_str(), (unsigned long long)r.seed,
                  r.round);
    }
  }
}

/// The stderr report after a campaign: run summary, per-cell rates (with
/// bisect thresholds), and the final monitor table when one is attached.
void report(const orchestrator::CampaignFile& file,
            const adaptive::ExecuteResult& result, double total_s,
            const monitor::MonitorService* service) {
  const std::string title =
      file.strategy ? file.name + " [" + file.strategy->name + "]" : file.name;
  std::fprintf(stderr, "\n%s: %zu runs executed, %llu restored\n",
               title.c_str(), result.records.size(),
               (unsigned long long)result.restored);
  if (!result.records.empty()) {
    auto summary = orchestrator::summarize(title, result.records);
    summary.add_note(
        file.strategy
            ? nftape::cell("%u rounds, %s; %.1f s wall", result.rounds,
                           result.converged ? "converged"
                                            : "round/run cap reached",
                           total_s)
            : nftape::cell("%.1f s wall, %.2f runs/s", total_s,
                           static_cast<double>(result.records.size()) /
                               total_s));
    std::fprintf(stderr, "\n%s", summary.render().c_str());
    auto cells = orchestrator::cell_summary("per-cell manifestation rates",
                                            result.records);
    for (const auto& [cell, t] : result.thresholds) {
      const nftape::Knob knob = file.strategy->knob;
      const std::string name(nftape::to_string(knob));
      if (t.found && std::isnan(t.masked_at)) {
        cells.add_note(nftape::cell(
            "%s: the entire axis manifests (down to %s = %.6g, %zu runs)",
            cell.c_str(), name.c_str(), t.manifested_at, t.runs));
      } else if (t.found) {
        cells.add_note(nftape::cell(
            "%s: manifests at %s %s %.6g (bracket %.6g..%.6g, %zu runs)",
            cell.c_str(), name.c_str(),
            nftape::higher_is_more_intense(knob) ? ">=" : "<=",
            t.manifested_at, t.manifested_at, t.masked_at, t.runs));
      } else {
        cells.add_note(
            nftape::cell("%s: no manifestation on the axis", cell.c_str()));
      }
    }
    std::fprintf(stderr, "\n%s", cells.render().c_str());
  }
  if (service != nullptr) {
    std::fprintf(stderr, "\n%s",
                 service->table("monitor (final)").render().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  orchestrator::GridCampaign grid;
  adaptive::ExecuteOptions opts;
  std::string spec_path, bench_out_path, emit_repro_path, replay_path;
  bool list_only = false, list_faults = false, list_scenarios = false;
  bool dry_run = false, monitor = false;
  bool grid_flags_used = false;  // flags the spec supersedes
  long monitor_interval_ms = 0;  // 0 = final table only
  std::uint32_t merge_n = 0;
  std::uint64_t crash_after = 0;
  std::string command_line;  // the lowered campaign file's identity

  // Switches and plain string flags; the loop handles the rest. --list*
  // only take effect after parsing, so `--medium fc --list` works in any
  // order.
  const std::pair<const char*, bool*> switches[] = {
      {"--resume", &opts.resume},       {"--timing", &opts.timing},
      {"--monitor", &monitor},          {"--early-cancel", &opts.early_cancel},
      {"--dry-run", &dry_run},          {"--list", &list_only},
      {"--list-faults", &list_faults},  {"--list-scenarios", &list_scenarios}};
  const std::pair<const char*, std::string*> strings[] = {
      {"--spec", &spec_path},         {"--out", &opts.out},
      {"--bench-out", &bench_out_path}, {"--faults", &grid.faults},
      {"--scenario", &grid.scenario}, {"--emit-repro", &emit_repro_path},
      {"--replay", &replay_path}};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    command_line += arg + ' ';
    // Both lambdas bound-check i before reading argv[++i]: a flag at the
    // end of the command line must not read past argv, and a non-numeric
    // value must not silently parse as 0.
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage_error("%s needs a value", argv[i]));
      command_line += std::string(argv[i + 1]) + ' ';
      return argv[++i];
    };
    const auto numeric = [&](bool positive = false) -> long long {
      const char* v = value();
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(v, &end, 10);
      // ERANGE check: strtoll saturates out-of-range input to LLONG_MAX and
      // only reports it via errno, so "--runs 99999999999999999999" would
      // otherwise silently become a 9.2e18-run campaign.
      if (errno == ERANGE) {
        std::exit(usage_error("%s value out of range: '%s'", arg.c_str(), v));
      }
      if (end == v || *end != '\0' || parsed < 0) {
        std::exit(usage_error("%s needs a non-negative integer, got '%s'",
                              arg.c_str(), v));
      }
      if (positive && parsed == 0) {
        std::exit(usage_error("%s must be positive", arg.c_str()));
      }
      return parsed;
    };
    const auto find = [&](const auto& table) {
      for (const auto& [name, dst] : table) {
        if (arg == name) return dst;
      }
      return decltype(table[0].second){};
    };
    // Campaign-shaping flags; execution knobs such as --workers and
    // --snapshots never change the records, so they combine with --spec.
    grid_flags_used = grid_flags_used || arg == "--seed" ||
                      arg == "--replicates" || arg == "--duration-ms" ||
                      arg == "--faults" || arg == "--medium" ||
                      arg == "--strategy" || arg == "--scenario" ||
                      arg == "--emit-repro";
    if (bool* flag = find(switches)) {
      *flag = true;
    } else if (std::string* dst = find(strings)) {
      *dst = value();
    } else if (arg == "--workers") {
      opts.workers = static_cast<std::size_t>(numeric());
    } else if (arg == "--snapshots") {
      const std::string v = value();
      if (v != "on" && v != "off") {
        return usage_error("--snapshots must be on or off, got '%s'",
                           v.c_str());
      }
      opts.snapshots = v == "on";
    } else if (arg == "--seed") {
      grid.seed = static_cast<std::uint64_t>(numeric());
    } else if (arg == "--replicates") {
      grid.replicates = static_cast<std::size_t>(numeric());
    } else if (arg == "--duration-ms") {
      grid.duration_ms = static_cast<long>(numeric());
    } else if (arg == "--shard") {
      const char* v = value();
      char* end = nullptr;
      errno = 0;
      const unsigned long long k = std::strtoull(v, &end, 10);
      bool ok = errno != ERANGE && end != v && *end == '/';
      unsigned long long n = 0;
      if (ok) {
        const char* rest = end + 1;
        errno = 0;
        n = std::strtoull(rest, &end, 10);
        ok = errno != ERANGE && end != rest && *end == '\0' && n > 0 &&
             k < n && n <= 4096;
      }
      if (!ok) {
        return usage_error("--shard wants K/N with 0 <= K < N, got '%s'", v);
      }
      opts.shard = static_cast<std::uint32_t>(k);
      opts.of = static_cast<std::uint32_t>(n);
    } else if (arg == "--merge") {
      const auto n = numeric();
      if (n < 2 || n > 4096) return usage_error("--merge needs at least 2 shards");
      merge_n = static_cast<std::uint32_t>(n);
    } else if (arg == "--batch") {
      opts.batch = static_cast<std::size_t>(numeric(true));
    } else if (arg == "--crash-after-batches") {
      crash_after = static_cast<std::uint64_t>(numeric());
    } else if (arg == "--medium") {
      const char* v = value();
      const auto parsed = nftape::parse_medium(v);
      if (!parsed) {
        return usage_error("--medium must be myrinet or fc, got '%s'", v);
      }
      grid.medium = *parsed;
    } else if (arg == "--strategy") {
      grid.strategy.name = value();
      if (grid.strategy.name != "fixed" && grid.strategy.name != "bisect" &&
          grid.strategy.name != "coverage") {
        return usage_error(
            "--strategy must be fixed, bisect, or coverage, got '%s'",
            grid.strategy.name.c_str());
      }
    } else if (arg == "--tolerance") {
      grid.strategy.tolerance_us = static_cast<double>(numeric(true));
    } else if (arg == "--max-rounds") {
      grid.strategy.max_rounds = static_cast<std::uint32_t>(numeric());
    } else if (arg == "--target-count") {
      grid.strategy.target_count = static_cast<std::uint64_t>(numeric());
    } else if (arg == "--monitor-interval-ms") {
      monitor_interval_ms = static_cast<long>(numeric(true));
    } else if (arg == "--help") {
      usage();
      return 0;
    } else {
      return usage_error("unknown option '%s'", arg.c_str());
    }
  }

  if (!replay_path.empty()) {
    // Standalone mode: the trace defines the run; every other campaign
    // flag would contradict it.
    if (grid_flags_used || !spec_path.empty() || monitor || dry_run ||
        list_only || list_faults || list_scenarios) {
      return usage_error("--replay is standalone; drop the other flags");
    }
    return replay_trace(replay_path);
  }
  if (!emit_repro_path.empty() && grid.scenario.empty()) {
    return usage_error("--emit-repro requires --scenario");
  }
  if (!emit_repro_path.empty() && !grid.strategy.name.empty()) {
    return usage_error(
        "--emit-repro minimizes a single static run; drop --strategy");
  }
  if (monitor_interval_ms > 0 && !monitor) {
    return usage_error("--monitor-interval-ms requires --monitor");
  }
  if (opts.early_cancel && grid.strategy.name.empty()) {
    return usage_error("--early-cancel requires --strategy");
  }
  // --spec supersedes the grid flags and owns the shard/resume machinery.
  if (spec_path.empty()) {
    if (opts.of > 1 || merge_n > 0 || opts.resume || opts.batch != 0 ||
        crash_after != 0) {
      return usage_error(
          "--shard/--merge/--resume/--batch/--crash-after-batches require "
          "--spec");
    }
  } else if (grid_flags_used) {
    return usage_error(
        "--spec defines the campaign; drop "
        "--medium/--faults/--seed/--replicates/--duration-ms/--strategy");
  } else if (monitor || opts.early_cancel || !bench_out_path.empty()) {
    return usage_error(
        "--monitor/--early-cancel/--bench-out are not supported with --spec");
  } else if ((opts.of > 1 || merge_n > 0 || opts.resume) && opts.out.empty()) {
    return usage_error("--shard/--merge/--resume require --out");
  } else if (opts.of > 1 && merge_n > 0) {
    return usage_error("--shard and --merge are mutually exclusive");
  }

  if (spec_path.empty() && list_scenarios) {
    for (const auto& s : scenario::list_scenarios()) {
      std::printf("%-15s %-8s %s\n", std::string(s.name).c_str(),
                  std::string(scenario::to_string(s.medium)).c_str(),
                  std::string(s.description).c_str());
    }
    return 0;
  }
  if (spec_path.empty() && (list_only || list_faults)) {
    for (const auto& f : orchestrator::standard_fault_axis(grid.medium)) {
      if (list_faults) {
        std::printf("%-15s %s\n", f.name.c_str(), f.description.c_str());
      } else {
        std::printf("%s\n", f.name.c_str());
      }
    }
    return 0;
  }

  try {
    const auto file = spec_path.empty()
                          ? orchestrator::grid_campaign(grid, command_line)
                          : orchestrator::load_campaign_file(spec_path);
    if (!emit_repro_path.empty()) {
      return emit_repro(file.targets.front().sweep, !grid.faults.empty(),
                        emit_repro_path);
    }
    if (file.strategy && (opts.of > 1 || merge_n > 0)) {
      std::fprintf(stderr,
                   "--shard/--merge apply to static campaigns; '%s' is "
                   "steered by strategy %s\n",
                   spec_path.c_str(), file.strategy->name.c_str());
      return 1;
    }
    if (dry_run) {
      print_plan(file, opts.shard, opts.of, spec_path.empty());
      return 0;
    }
    if (merge_n > 0) {
      const std::size_t merged = orchestrator::merge_shards(
          orchestrator::expand_campaign(file), opts.out, merge_n);
      std::fprintf(stderr, "merged %zu records from %u shards into %s\n",
                   merged, merge_n, opts.out.c_str());
      return 0;
    }

    // Streaming plane: --monitor attaches the live service behind the
    // feed; --early-cancel alone still needs the feed (live mode), just
    // without the table. Deterministic mode (no --early-cancel) leaves the
    // record stream byte-identical to an unmonitored campaign.
    monitor::MonitorService service;
    monitor::StreamingFeed feed(monitor ? &service : nullptr);
    IntervalRenderer renderer(service, monitor_interval_ms);
    if (monitor || opts.early_cancel) opts.feed = &feed;
    if (monitor && monitor_interval_ms > 0) opts.sinks.push_back(&renderer);
    if (crash_after > 0) {
      opts.after_durable = [crash_after](const std::string& data_file,
                                         std::uint64_t durable) {
        if (durable >= crash_after) crash_torn(data_file);
      };
    }
    opts.on_progress = [](const orchestrator::Progress& p) {
      std::fprintf(stderr, "\r%zu/%zu done, %zu failed, %zu in flight   ",
                   p.completed + p.failed, p.total, p.failed, p.in_flight);
    };
    opts.on_round = [](const std::string& target,
                       const adaptive::RoundSummary& s) {
      std::fprintf(stderr, "%s%sround %u: %zu runs (%zu failed), %zu total\n",
                   target.c_str(), target.empty() ? "" : " ", s.round, s.runs,
                   s.failed, s.total_runs);
    };

    const auto start = std::chrono::steady_clock::now();
    const auto result = adaptive::execute_campaign(file, opts);
    const double total_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    // Records come back in run-index (static) or emission (strategy)
    // order, so the output is deterministic and, without --timing,
    // byte-identical for any --workers value.
    if (opts.out.empty()) {
      for (const auto& r : result.records) {
        std::printf("%s\n", orchestrator::to_jsonl(r, opts.timing).c_str());
      }
    }
    if (!bench_out_path.empty() &&
        !write_bench_out(bench_out_path, result.records, total_s)) {
      return 1;
    }
    report(file, result, total_s, monitor ? &service : nullptr);
    for (const auto& r : result.records) {
      if (r.outcome != orchestrator::RunOutcome::kOk &&
          r.outcome != orchestrator::RunOutcome::kSkipped) {
        return 2;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
