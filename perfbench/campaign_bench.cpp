// Campaign benchmark: runs one named workload as a real campaign through the
// public entry points `run_sweep --spec` uses, checks that its output is
// correct and deterministic, and prints every metric by name and unit.
//
//   campaign_bench --workload fc_grid --seed 1 --seconds 45 --trace 0
//                  [--spec-dir perfbench/specs] [--trace-out trace.json]
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the
// per-layer metrics: it alternates untraced and traced campaign reps (the
// difference is the tracing overhead), executes one representative run
// directly through make_fabric/CampaignRunner and cross-checks it against
// the Runner's record, and replays single library calls in isolation.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/controller.hpp"
#include "adaptive/strategy.hpp"
#include "count_alloc.hpp"
#include "monitor/feed.hpp"
#include "monitor/jsonl_reader.hpp"
#include "monitor/service.hpp"
#include "nftape/fabric.hpp"
#include "nftape/fc_fabric.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/json_value.hpp"
#include "orchestrator/runner.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace {

namespace adaptive = hsfi::adaptive;
namespace monitor = hsfi::monitor;
namespace nftape = hsfi::nftape;
namespace orch = hsfi::orchestrator;
namespace sim = hsfi::sim;
using perfbench::Scope;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

/// Fixed worker pool: half of a 4-core host, so the rest stays free.
constexpr std::size_t kWorkers = 2;
/// Campaign reps per run, at least (more while --seconds have not passed).
constexpr std::size_t kMinReps = 3;
/// Cold set-ups are sampled in a batch before every campaign rep: at least
/// kSetupBatch of them, for at least kSetupShare of the last rep's time.
/// Spread over the run, they see the same host conditions as the campaigns.
constexpr std::size_t kSetupBatch = 5;
constexpr double kSetupShare = 0.05;
/// Direct CampaignRunner::run executions in the traced run: one cold, the
/// rest forked from the snapshot.
constexpr int kDirectReps = 4;
/// The Runner's default watchdog chunking; settles are split the same way.
constexpr sim::Duration kPollInterval = sim::milliseconds(10);
/// Root span names of the two campaign kinds.
constexpr const char* kCampaignSpanGrid = "Runner::run_all";
constexpr const char* kCampaignSpanAdaptive = "Controller::run";

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double ms_since(Clock::time_point t) { return 1e3 * seconds_since(t); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of the ladder that leaves at least 10 of `basis`
/// samples beyond it, and the nearest-rank value of `v` there. `basis` is
/// the smallest sample count a run can have, so the percentile does not
/// move with the number of reps that happen to fit in the run.
std::pair<double, double> tail(std::vector<double> v, std::size_t basis) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (static_cast<double>(basis) * (1.0 - p / 100.0) >= 10.0) {
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
      return {p, v[rank - 1]};
    }
  }
  return {50.0, median(v)};
}

// ---------------------------------------------------------------------------
// Options and workload

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spec_dir = "perfbench/specs";
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload "
               "fc_grid|bisect_fork --seed N --seconds S --trace "
               "0|1 [--spec-dir DIR] [--trace-out FILE]\n",
               what.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage_error("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0)) {
        usage_error("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--spec-dir") {
      o.spec_dir = value;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

/// The workload's campaign file with the benchmark seed written into its
/// base seed (the spec files are valid `run_sweep --spec` inputs as-is).
orch::CampaignFile load_spec(const Options& o, double* spec_ms) {
  const std::string path = o.spec_dir + "/" + o.workload + ".json";
  std::ifstream in(path);
  if (!in) usage_error("unknown workload (no spec " + path + ")");
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::string key = "\"seed\": ";
  const auto at = text.find(key);
  if (at == std::string::npos) usage_error(path + " has no \"seed\": field");
  const auto digits = text.find_first_not_of("0123456789", at + key.size());
  text.replace(at + key.size(), digits - at - key.size(),
               std::to_string(o.seed));

  // orchestrator.spec_ms: parse + expand, median of 15.
  std::vector<double> ms;
  orch::CampaignFile file;
  for (int i = 0; i < 15; ++i) {
    const auto t0 = Clock::now();
    file = orch::parse_campaign_file(text);
    const auto runs = orch::expand_campaign(file);
    ms.push_back(ms_since(t0));
    if (runs.empty() && !file.strategy) usage_error(path + " expands to nothing");
  }
  if (file.base_seed != o.seed) usage_error(path + ": seed not substituted");
  *spec_ms = median(ms);
  return file;
}

// ---------------------------------------------------------------------------
// Adaptive plumbing, mirroring run_sweep's spec mode

adaptive::AdaptiveSpec adaptive_spec(const orch::CampaignFile& file,
                                     const orch::CampaignTarget& target,
                                     std::size_t index_base) {
  const orch::SweepSpec& sweep = target.sweep;
  adaptive::AdaptiveSpec a;
  a.name = file.name + ":" + target.name;
  a.base = sweep.base;
  a.testbed = sweep.testbed;
  a.startup_settle = sweep.startup_settle;
  a.faults = sweep.faults;
  a.directions = sweep.directions;
  a.knob = file.strategy->knob;
  a.base_seed = sweep.base_seed;
  a.max_rounds = file.strategy->max_rounds;
  a.name_prefix = target.name + ":";
  a.index_base = index_base;
  return a;
}

adaptive::BisectionConfig bisection_config(const orch::StrategySpec& s) {
  adaptive::BisectionConfig bc;
  bc.lo = s.axis_lo;
  bc.hi = s.axis_hi;
  bc.tolerance = s.tolerance_us;
  bc.higher_is_more_intense = false;
  bc.min_manifested = 3;
  return bc;
}

/// Times next_round + observe of the wrapped strategy (traced run only).
class TimedStrategy final : public adaptive::Strategy {
 public:
  TimedStrategy(adaptive::Strategy& inner, Tracer& tracer, std::int64_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] std::vector<adaptive::RunRequest> next_round(
      std::uint32_t round) override {
    const std::int64_t t0 = tracer_.now_ns();
    auto out = inner_.next_round(round);
    record("next_round", t0);
    return out;
  }
  void observe(const std::vector<adaptive::Observation>& results) override {
    const std::int64_t t0 = tracer_.now_ns();
    inner_.observe(results);
    record("observe", t0);
  }
  [[nodiscard]] bool observe_streaming(
      const adaptive::Observation& obs) override {
    return inner_.observe_streaming(obs);
  }

  [[nodiscard]] double plan_ms() const noexcept { return plan_ns_ / 1e6; }

 private:
  void record(const char* what, std::int64_t t0) {
    const std::int64_t t1 = tracer_.now_ns();
    plan_ns_ += static_cast<double>(t1 - t0);
    tracer_.add(std::string("strategy.") + what, "adaptive", t0, t1, parent_);
  }

  adaptive::Strategy& inner_;
  Tracer& tracer_;
  std::int64_t parent_;
  double plan_ns_ = 0.0;
};

/// Rebuilds each run's span from its completion time and RunRecord::wall_ms,
/// on the worker thread that ran it.
class RunSpanSink final : public orch::RecordSink {
 public:
  RunSpanSink(Tracer& tracer, std::int64_t parent)
      : tracer_(tracer), parent_(parent) {}
  void on_record(const orch::RunRecord& r) override {
    const std::int64_t end = tracer_.now_ns();
    const auto start = end - static_cast<std::int64_t>(r.wall_ms * 1e6);
    tracer_.add("run " + r.name, "nftape", start, end, parent_,
                static_cast<std::int64_t>(r.index));
  }

 private:
  Tracer& tracer_;
  std::int64_t parent_;
};

/// Times another sink's on_record.
class TimedSink final : public orch::RecordSink {
 public:
  TimedSink(Tracer& tracer, orch::RecordSink& inner, std::string name,
            std::string layer, std::int64_t parent)
      : tracer_(tracer), inner_(inner), name_(std::move(name)),
        layer_(std::move(layer)), parent_(parent) {}
  void on_record(const orch::RunRecord& r) override {
    const std::int64_t t0 = tracer_.now_ns();
    inner_.on_record(r);
    tracer_.add(name_, layer_, t0, tracer_.now_ns(), parent_,
                static_cast<std::int64_t>(r.index));
  }

 private:
  Tracer& tracer_;
  orch::RecordSink& inner_;
  std::string name_;
  std::string layer_;
  std::int64_t parent_;
};

// ---------------------------------------------------------------------------
// One campaign rep

struct Rep {
  double campaign_s = 0.0;
  std::vector<orch::RunRecord> records;  ///< run-index order
  std::string thresholds;                ///< bisect brackets; "" for grids
  std::uint32_t rounds = 0;
  double plan_ms = 0.0;  ///< traced reps only
  perfbench::AllocCounts alloc;
  std::size_t jsonl_lines = 0;

  [[nodiscard]] std::uint64_t symbols() const {
    std::uint64_t n = 0;
    for (const auto& r : records) n += r.result.symbols_sent;
    return n;
  }
  [[nodiscard]] std::uint64_t events() const {
    std::uint64_t n = 0;
    for (const auto& r : records) n += r.result.events_executed;
    return n;
  }
  [[nodiscard]] double wall_ms() const {
    double ms = 0.0;
    for (const auto& r : records) ms += r.wall_ms;
    return ms;
  }
};

std::string format_thresholds(const std::vector<adaptive::CellThreshold>& ts) {
  std::string out;
  char buf[160];
  for (const auto& t : ts) {
    std::snprintf(buf, sizeof(buf), "[%.17g,%.17g,%d,%d,%zu]", t.masked_at,
                  t.manifested_at, t.found ? 1 : 0, t.converged ? 1 : 0,
                  t.runs);
    out += buf;
  }
  return out;
}

/// Static grid: expand_campaign -> Runner::run_all, JSONL streamed to memory.
Rep run_grid(const orch::CampaignFile& file, Tracer* tracer) {
  const auto runs = orch::expand_campaign(file);
  Rep rep;
  std::ostringstream jsonl;
  orch::JsonlSink jsonl_sink(jsonl);

  const std::int64_t campaign =
      tracer != nullptr ? tracer->open(kCampaignSpanGrid, "orchestrator") : -1;
  std::optional<RunSpanSink> spans;
  std::optional<TimedSink> timed_jsonl;
  orch::RunnerConfig rc;
  rc.workers = kWorkers;
  rc.snapshots = true;
  if (tracer != nullptr) {
    spans.emplace(*tracer, campaign);
    timed_jsonl.emplace(*tracer, jsonl_sink, "to_jsonl", "orchestrator",
                        campaign);
    rc.sinks = {&*spans, &*timed_jsonl};
  } else {
    rc.sinks = {&jsonl_sink};
  }
  orch::Runner runner(rc);

  perfbench::reset_alloc_counts();
  const auto t0 = Clock::now();
  rep.records = runner.run_all(runs);
  rep.campaign_s = seconds_since(t0);
  rep.alloc = perfbench::alloc_counts();
  if (tracer != nullptr) tracer->close(campaign);

  const std::string text = jsonl.str();
  rep.jsonl_lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  return rep;
}

/// Adaptive: one Controller per target with a BisectionStrategy, the
/// MonitorService attached through the streaming feed in deterministic mode
/// (no early cancel), JSONL emitted at each round barrier.
Rep run_adaptive(const orch::CampaignFile& file, Tracer* tracer) {
  Rep rep;
  std::string jsonl;
  perfbench::reset_alloc_counts();
  const auto t0 = Clock::now();
  const std::int64_t campaign =
      tracer != nullptr ? tracer->open(kCampaignSpanAdaptive, "adaptive") : -1;
  std::size_t index_base = 0;
  for (const auto& target : file.targets) {
    monitor::MonitorService service;
    // Traced: the service hangs off a timing sink instead of the feed, so
    // each fold is a span; it still sees every record exactly once.
    monitor::StreamingFeed feed(tracer != nullptr ? nullptr : &service);
    std::optional<RunSpanSink> spans;
    std::optional<TimedSink> timed_monitor;

    adaptive::ControllerConfig cc;
    cc.runner.workers = kWorkers;
    cc.runner.snapshots = true;
    cc.feed = &feed;
    cc.early_cancel = false;
    if (tracer != nullptr) {
      spans.emplace(*tracer, campaign);
      timed_monitor.emplace(*tracer, service, "MonitorService::on_record",
                            "monitor", campaign);
      cc.runner.sinks = {&*spans, &*timed_monitor};
      cc.on_record = [&](const orch::RunRecord& r) {
        const std::int64_t s0 = tracer->now_ns();
        jsonl += orch::to_jsonl(r) + "\n";
        tracer->add("to_jsonl", "orchestrator", s0, tracer->now_ns(),
                    campaign, static_cast<std::int64_t>(r.index));
      };
    } else {
      cc.on_record = [&](const orch::RunRecord& r) {
        jsonl += orch::to_jsonl(r) + "\n";
      };
    }
    adaptive::Controller controller(adaptive_spec(file, target, index_base),
                                    std::move(cc));
    adaptive::BisectionStrategy bisect(controller.cells(),
                                       bisection_config(*file.strategy));
    std::optional<TimedStrategy> timed;
    if (tracer != nullptr) timed.emplace(bisect, *tracer, campaign);
    adaptive::Strategy& strategy =
        timed ? static_cast<adaptive::Strategy&>(*timed) : bisect;

    auto outcome = controller.run(strategy);
    index_base += outcome.records.size();
    rep.rounds += outcome.rounds;
    if (timed) rep.plan_ms += timed->plan_ms();
    rep.thresholds += format_thresholds(bisect.thresholds());
    for (auto& r : outcome.records) rep.records.push_back(std::move(r));
  }
  rep.campaign_s = seconds_since(t0);
  rep.alloc = perfbench::alloc_counts();
  if (tracer != nullptr) tracer->close(campaign);

  std::sort(rep.records.begin(), rep.records.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  rep.jsonl_lines =
      static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n'));
  return rep;
}

Rep run_campaign(const orch::CampaignFile& file, Tracer* tracer) {
  return file.strategy ? run_adaptive(file, tracer) : run_grid(file, tracer);
}

/// The run the set-up and direct-run measurements use: the last round-0
/// run at the workload's most intense datagram interval. Being late in its
/// batch, the Runner executes it on a forked fabric, not a cold one.
orch::RunSpec representative_run(const orch::CampaignFile& file) {
  std::vector<orch::RunSpec> runs;
  if (file.strategy) {
    adaptive::Controller controller(adaptive_spec(file, file.targets.front(), 0));
    adaptive::BisectionStrategy bisect(controller.cells(),
                                       bisection_config(*file.strategy));
    runs = controller.expand_round(bisect.next_round(0), 0, 0, bisect.name());
  } else {
    runs = orch::expand_campaign(file);
  }
  const auto it = std::min_element(
      runs.rbegin(), runs.rend(), [](const auto& a, const auto& b) {
        return a.campaign.workload.udp_interval <
               b.campaign.workload.udp_interval;
      });
  return *it;
}

// ---------------------------------------------------------------------------
// Output checks

class Checker {
 public:
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(const std::string& what) {
    ++failed_;
    if (messages_.size() < 20) messages_.push_back(what);
  }

  /// Per-record checks, and identity with the first rep of this seed.
  void check_rep(const Rep& rep, const Rep* first, int rep_no) {
    attempt(rep.records.size());
    if (rep.jsonl_lines != rep.records.size()) {
      fail("rep " + std::to_string(rep_no) + ": " +
           std::to_string(rep.jsonl_lines) + " JSONL lines for " +
           std::to_string(rep.records.size()) + " records");
    }
    for (std::size_t i = 0; i < rep.records.size(); ++i) {
      const auto& r = rep.records[i];
      const std::string where =
          "rep " + std::to_string(rep_no) + " run " + std::to_string(r.index);
      if (r.outcome != orch::RunOutcome::kOk) {
        fail(where + ": outcome " + std::string(orch::to_string(r.outcome)) +
             " " + r.error);
        continue;
      }
      if (r.result.manifestations.total() != r.result.injections) {
        fail(where + ": manifestation classes do not sum to injections");
        continue;
      }
      if (first == nullptr) continue;
      if (i >= first->records.size()) {
        fail(where + ": run absent from the first rep");
        continue;
      }
      const auto& f = first->records[i];
      if (orch::to_jsonl(r) != orch::to_jsonl(f)) {
        fail(where + ": JSONL record differs from the first rep");
      } else if (r.result.symbols_sent != f.result.symbols_sent) {
        fail(where + ": link symbols differ from the first rep");
      }
    }
    if (first != nullptr) {
      if (rep.records.size() != first->records.size()) {
        fail("rep " + std::to_string(rep_no) + ": " +
             std::to_string(rep.records.size()) + " runs vs " +
             std::to_string(first->records.size()) + " in the first rep");
      }
      if (rep.thresholds != first->thresholds) {
        fail("rep " + std::to_string(rep_no) +
             ": bisect thresholds differ from the first rep");
      }
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Set-up and the direct run

void settle_chunked(nftape::Fabric& fabric, sim::Duration span) {
  while (span > 0) {
    const sim::Duration step = std::min(span, kPollInterval);
    fabric.settle(step);
    span -= step;
  }
}

struct Setup {
  double total_s = 0.0;
  double settle_ms = 0.0;   ///< make_fabric + start + settle(startup)
  double capture_ms = 0.0;  ///< capture_snapshot
};

/// What every worker pays once per cell before its first forked run.
Setup cold_setup(const orch::RunSpec& run) {
  Setup s;
  const auto t0 = Clock::now();
  auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
  fabric->start();
  settle_chunked(*fabric, run.startup_settle);
  s.settle_ms = ms_since(t0);
  const auto t1 = Clock::now();
  const auto snap = fabric->capture_snapshot();
  s.capture_ms = ms_since(t1);
  s.total_s = seconds_since(t0);
  if (snap == nullptr) usage_error("fabric does not support snapshots");
  return s;
}

/// Collects cold set-ups of one run spec, batch by batch.
class SetupSampler {
 public:
  explicit SetupSampler(orch::RunSpec run) : run_(std::move(run)) {}

  void batch(double last_rep_s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0;
         i < kSetupBatch || seconds_since(t0) < kSetupShare * last_rep_s; ++i) {
      samples_.push_back(cold_setup(run_));
    }
  }

  [[nodiscard]] const std::vector<Setup>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] double median_s() const {
    std::vector<double> s;
    for (const auto& x : samples_) s.push_back(x.total_s);
    return median(s);
  }

 private:
  orch::RunSpec run_;
  std::vector<Setup> samples_;
};

struct DirectCounts {
  std::uint64_t characters = 0, matches = 0, injections = 0;
  std::uint64_t packets_routed = 0, flow_stops = 0, slack_overflow = 0,
                long_timeouts = 0;
};

struct Direct {
  nftape::CampaignResult result;
  DirectCounts counts;
  std::vector<double> restore_ms, run_ms;
};

hsfi::myrinet::Switch::PortStats switch_totals(nftape::Fabric& fabric) {
  hsfi::myrinet::Switch::PortStats t;
  auto* myri = dynamic_cast<nftape::MyrinetFabric*>(&fabric);
  if (myri == nullptr) return t;
  auto& sw = myri->bed().network_switch();
  for (std::size_t p = 0; p < sw.num_ports(); ++p) {
    const auto s = sw.port_stats(p);
    t.packets_routed += s.packets_routed;
    t.flow_stops_sent += s.flow_stops_sent;
    t.slack_overflow += s.slack_overflow;
    t.long_timeouts += s.long_timeouts;
  }
  return t;
}

hsfi::core::InjectorDevice* injector_of(nftape::Fabric& fabric) {
  if (auto* m = dynamic_cast<nftape::MyrinetFabric*>(&fabric)) {
    return &m->bed().injector();
  }
  if (auto* f = dynamic_cast<nftape::FcFabric*>(&fabric)) {
    return &f->injector();
  }
  return nullptr;
}

/// The record the Runner would emit for `run` finishing with `result`.
orch::RunRecord record_for(const orch::RunSpec& run,
                           const nftape::CampaignResult& result) {
  orch::RunRecord r;
  r.index = run.index;
  r.name = run.campaign.name;
  r.seed = run.seed;
  r.medium = run.campaign.medium;
  r.round = run.round;
  r.strategy = run.strategy;
  r.outcome = orch::RunOutcome::kOk;
  r.attempts = 1;
  r.result = result;
  return r;
}

/// Cold start and capture, then CampaignRunner::run kDirectReps times: the
/// first straight after the capture (as a worker's first run of a cell),
/// the rest each on a restored snapshot (a forked run). Counters are read
/// from the fabric's own objects after the last run.
Direct direct_run(const orch::RunSpec& run, Tracer& tracer, Checker& check) {
  Direct d;
  const Scope whole(&tracer, "direct run", "nftape");
  auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
  fabric->start();
  settle_chunked(*fabric, run.startup_settle);
  const auto snap = fabric->capture_snapshot();
  nftape::RunControl control;
  control.poll_interval = kPollInterval;
  control.should_cancel = [](sim::Duration) { return false; };

  hsfi::myrinet::Switch::PortStats before;
  std::optional<std::string> first;
  for (int i = 0; i < kDirectReps; ++i) {
    auto t0 = Clock::now();
    if (i > 0) {
      const Scope sc(&tracer, "restore_snapshot", "nftape", whole.id());
      fabric->restore_snapshot(*snap);
      d.restore_ms.push_back(ms_since(t0));
    }
    before = switch_totals(*fabric);
    t0 = Clock::now();
    {
      const Scope sc(&tracer, "CampaignRunner::run", "nftape", whole.id());
      nftape::CampaignRunner runner(*fabric);
      d.result = runner.run(run.campaign, &control, run.startup_settle);
    }
    d.run_ms.push_back(ms_since(t0));
    check.attempt(1);
    const std::string line = orch::to_jsonl(record_for(run, d.result));
    if (!first) {
      first = line;
    } else if (line != *first) {
      check.fail("forked direct run " + std::to_string(i) +
                 " differs from the cold one");
    }
  }
  const auto after = switch_totals(*fabric);
  d.counts.packets_routed = after.packets_routed - before.packets_routed;
  d.counts.flow_stops = after.flow_stops_sent - before.flow_stops_sent;
  d.counts.slack_overflow = after.slack_overflow - before.slack_overflow;
  d.counts.long_timeouts = after.long_timeouts - before.long_timeouts;
  if (auto* inj = injector_of(*fabric)) {
    for (const auto dir : {hsfi::core::Direction::kLeftToRight,
                           hsfi::core::Direction::kRightToLeft}) {
      const auto& s = inj->fifo_stats(dir);
      d.counts.characters += s.characters;
      d.counts.matches += s.matches;
      d.counts.injections += s.injections;
    }
  }
  return d;
}

/// The direct run must reproduce the Runner's record for the same run.
void cross_check(const orch::RunSpec& run, const Direct& d, const Rep& rep,
                 Checker& check) {
  const auto it = std::find_if(
      rep.records.begin(), rep.records.end(),
      [&](const orch::RunRecord& r) { return r.index == run.index; });
  if (it == rep.records.end()) {
    check.fail("cross-check: run " + std::to_string(run.index) +
               " missing from the Runner's records");
    return;
  }
  const std::string mine = orch::to_jsonl(record_for(run, d.result));
  if (mine != orch::to_jsonl(*it) ||
      d.result.symbols_sent != it->result.symbols_sent) {
    check.fail("cross-check: direct run differs from the Runner's record\n"
               "  direct: " + mine + "\n  runner: " + orch::to_jsonl(*it));
  }
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string samples;  ///< human-readable sample count / note
};

std::string commit_id() {
  const char* c = std::getenv("HSFI_COMMIT");
  return c != nullptr && *c != '\0' ? c : "unknown";
}

void print_provenance(const Options& o) {
  std::printf(
      "provenance: {\"workload\":\"%s\",\"seed\":%llu,\"commit\":\"%s\","
      "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\",\"workers\":%zu,"
      "\"trace\":%d}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      commit_id().c_str(), std::thread::hardware_concurrency(),
      HSFI_BENCH_COMPILER, HSFI_BENCH_BUILD_TYPE, kWorkers, o.trace ? 1 : 0);
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-40s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
}

std::string result_json(const Checker& check,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += check.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(check.attempted());
  out += ", \"failed\": " + std::to_string(check.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.12g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}}";
}

std::string n_of(std::size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// The two modes

std::vector<Metric> end_to_end(const orch::CampaignFile& file,
                               const Options& o, SetupSampler& setups,
                               Checker& check) {
  std::vector<Rep> reps;
  const auto start = Clock::now();
  while (reps.size() < kMinReps || seconds_since(start) < o.seconds) {
    setups.batch(reps.empty() ? 0.0 : reps.back().campaign_s);
    reps.push_back(run_campaign(file, nullptr));
    check.check_rep(reps.back(), reps.size() > 1 ? &reps.front() : nullptr,
                    static_cast<int>(reps.size() - 1));
  }
  std::vector<double> campaign_s, symbols_per_s, run_ms;
  for (const auto& rep : reps) {
    campaign_s.push_back(rep.campaign_s);
    symbols_per_s.push_back(static_cast<double>(rep.symbols()) /
                            rep.campaign_s);
    for (const auto& r : rep.records) run_ms.push_back(r.wall_ms);
  }
  const auto [tail_p, tail_ms] =
      tail(run_ms, kMinReps * reps.front().records.size());
  char tail_note[64];
  std::snprintf(tail_note, sizeof(tail_note), "n=%zu runs, p%g", run_ms.size(),
                tail_p);
  const double failed_frac = static_cast<double>(check.failed()) /
                             static_cast<double>(check.attempted());
  std::vector<Metric> m = {
      {"campaign_s", median(campaign_s), "s", n_of(reps.size(), "campaigns")},
      {"sim_symbols_per_s", median(symbols_per_s), "1/s",
       n_of(reps.size(), "campaigns")},
      {"run_ms_p50", median(run_ms), "ms", n_of(run_ms.size(), "runs")},
      {"run_ms_tail", tail_ms, "ms", tail_note},
      {"setup_s", setups.median_s(), "s",
       n_of(setups.samples().size(), "cold set-ups")},
      {"peak_rss_mb", peak_rss_mb(), "MB", "n=1 process"},
  };
  print_table("end-to-end (median over the samples shown):", m);
  std::string lines;
  for (const auto& r : reps.front().records) lines += orch::to_jsonl(r) + "\n";
  std::printf("  jsonl digest %016llx over %zu records, identical in all %zu "
              "reps unless a check failed\n",
              static_cast<unsigned long long>(orch::fnv1a64(lines)),
              reps.front().records.size(), reps.size());
  std::printf("  %-40s %16.6g %-8s %s\n", "failed_frac", failed_frac, "ratio",
              n_of(check.attempted(), "runs attempted").c_str());
  return m;
}

std::vector<Metric> per_layer(const orch::CampaignFile& file, const Options& o,
                              double spec_ms, SetupSampler& setups,
                              Tracer& tracer, Checker& check) {
  // Alternate untraced and traced reps: counters and allocation counts come
  // from the untraced ones, spans from the traced ones.
  std::vector<Rep> plain, traced;
  const auto start = Clock::now();
  while (plain.size() < 2 || traced.size() < 2 ||
         seconds_since(start) < o.seconds) {
    const bool trace_this = plain.size() > traced.size();
    setups.batch(plain.empty() ? 0.0 : plain.back().campaign_s);
    auto rep = run_campaign(file, trace_this ? &tracer : nullptr);
    const Rep* first = plain.empty() ? nullptr : &plain.front();
    check.check_rep(rep, first, static_cast<int>(plain.size() + traced.size()));
    (trace_this ? traced : plain).push_back(std::move(rep));
  }
  const Rep& rep = plain.front();
  std::vector<double> plain_s, traced_s, busy, plan_ms;
  for (const auto& r : plain) {
    plain_s.push_back(r.campaign_s);
    busy.push_back(r.wall_ms() / 1e3 /
                   (static_cast<double>(kWorkers) * r.campaign_s));
  }
  for (const auto& r : traced) {
    traced_s.push_back(r.campaign_s);
    plan_ms.push_back(r.plan_ms);
  }
  const double symbols = static_cast<double>(rep.symbols());
  const double events = static_cast<double>(rep.events());

  // Representative run, executed directly and cross-checked.
  const orch::RunSpec run = representative_run(file);
  const Direct d = direct_run(run, tracer, check);
  cross_check(run, d, rep, check);

  // Layer probes on the workload's frame size and fault configuration.
  constexpr double kProbeS = 0.05;
  const auto& w = run.campaign.workload;
  const bool fc = run.campaign.medium == nftape::Medium::kFc;
  const auto frames = fc ? perfbench::fc_frames(run.testbed.fc.frame_chunk,
                                                256, o.seed)
                         : perfbench::myrinet_frames(w.payload_size, 256,
                                                     o.seed);
  const auto serdes_frames =
      perfbench::fc_frames(run.testbed.fc.frame_chunk, 256, o.seed);
  const auto& fifo = run.testbed.injector_config.fifo;
  const hsfi::core::InjectorConfig armed =
      run.campaign.fault_to_switch ? *run.campaign.fault_to_switch
                                   : run.campaign.fault_from_switch.value_or(
                                         hsfi::core::InjectorConfig{});
  std::vector<std::string> lines;
  for (const auto& r : rep.records) lines.push_back(orch::to_jsonl(r));
  const std::size_t n = rep.records.size();

  // Each probe runs `fn`, records its span, and fails the run once when its
  // output check failed (`bad` is set by the per-call checks below).
  bool bad = false;
  const auto probe = [&](const char* name, const char* layer, auto&& fn) {
    bad = false;
    const std::int64_t t0 = tracer.now_ns();
    perfbench::ProbeResult res = fn();
    tracer.add(name, layer, t0, tracer.now_ns());
    if (bad) res.error = "output check failed";
    if (!res.error.empty()) check.fail(std::string(name) + ": " + res.error);
    return res;
  };
  const auto burst_armed = probe("probe clock_burst armed", "core", [&] {
    return perfbench::probe_clock_burst(fifo, armed, frames, kProbeS);
  });
  const auto burst_idle = probe("probe clock_burst unarmed", "core", [&] {
    return perfbench::probe_clock_burst(fifo, {}, frames, kProbeS);
  });
  const auto serdes = probe("probe FcSerdes encode+decode", "fc", [&] {
    return perfbench::probe_serdes(serdes_frames, kProbeS);
  });
  const auto jsonl = probe("probe to_jsonl", "orchestrator", [&] {
    return perfbench::probe_calls(n, kProbeS, [&](std::size_t i) {
      bad |= orch::to_jsonl(rep.records[i]) != lines[i];
    });
  });
  const auto json_parse = probe("probe parse_json", "orchestrator", [&] {
    return perfbench::probe_calls(n, kProbeS, [&](std::size_t i) {
      bad |= !orch::parse_json(lines[i]);
    });
  });
  const auto parse_record = probe("probe parse_record", "monitor", [&] {
    return perfbench::probe_calls(n, kProbeS, [&](std::size_t i) {
      const auto p = monitor::parse_record(lines[i]);
      bad |= !p || p->injections != rep.records[i].result.injections;
    });
  });
  monitor::MonitorService service;
  const auto fold = probe("probe MonitorService::on_record", "monitor", [&] {
    return perfbench::probe_calls(n, kProbeS, [&](std::size_t i) {
      service.on_record(rep.records[i]);
    });
  });

  std::uint64_t injections = 0, manifested = 0, secondary = 0, retries = 0,
                timeouts = 0;
  for (const auto& r : rep.records) {
    const auto& m = r.result.manifestations;
    injections += r.result.injections;
    manifested += m.total() - m[hsfi::analysis::Manifestation::kMasked];
    secondary += r.result.secondary_effects;
    retries += static_cast<std::uint64_t>(std::max(0, r.attempts - 1));
    timeouts += static_cast<std::uint64_t>(r.timeouts);
  }
  std::vector<double> settle_ms, capture_ms;
  for (const auto& s : setups.samples()) {
    settle_ms.push_back(s.settle_ms);
    capture_ms.push_back(s.capture_ms);
  }
  const auto per = [](const perfbench::ProbeResult& p, const char* unit) {
    return "n=" + std::to_string(p.units) + " " + unit;
  };
  const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::string one_campaign = "1 campaign";
  const std::string direct_note = "direct run";
  const double plain_med = median(plain_s);
  std::vector<Metric> m = {
      {"sim.events", events, "count", one_campaign},
      {"sim.events_per_symbol", events / symbols, "ratio", one_campaign},
      {"sim.events_per_s", events / plain_med, "1/s",
       n_of(plain.size(), "campaigns")},
      {"link.symbols", symbols, "count", one_campaign},
      {"alloc.per_ksymbol", u64(rep.alloc.calls) / (symbols / 1e3), "count",
       one_campaign},
      {"alloc.bytes_per_symbol", u64(rep.alloc.bytes) / symbols, "B",
       one_campaign},
      {"core.characters", u64(d.counts.characters), "count", direct_note},
      {"core.matches", u64(d.counts.matches), "count", direct_note},
      {"core.injections", u64(d.counts.injections), "count", direct_note},
      {"core.clock_burst_ns_per_symbol", burst_armed.ns_per_unit, "ns",
       per(burst_armed, "symbols")},
      {"core.clock_burst_idle_ns_per_symbol", burst_idle.ns_per_unit, "ns",
       per(burst_idle, "symbols")},
      {"myrinet.packets_routed", u64(d.counts.packets_routed), "count",
       direct_note},
      {"myrinet.flow_stops_sent", u64(d.counts.flow_stops), "count",
       direct_note},
      {"myrinet.slack_overflow", u64(d.counts.slack_overflow), "count",
       direct_note},
      {"myrinet.long_timeouts", u64(d.counts.long_timeouts), "count",
       direct_note},
      {"host.messages_sent", u64(d.result.messages_sent), "count",
       direct_note},
      {"host.messages_received", u64(d.result.messages_received), "count",
       direct_note},
      {"host.udp_checksum_drops", u64(d.result.udp_checksum_drops), "count",
       direct_note},
      {"fc.credit_stalls", u64(d.result.fc_credit_stalls), "count",
       direct_note},
      {"fc.seq_aborts", u64(d.result.fc_sequences_aborted), "count",
       direct_note},
      {"fc.serdes_ns_per_char", serdes.ns_per_unit, "ns",
       per(serdes, "characters")},
      {"analysis.injections", u64(injections), "count", one_campaign},
      {"analysis.manifested_frac",
       injections == 0 ? 0.0 : u64(manifested) / u64(injections), "ratio",
       one_campaign},
      {"analysis.secondary_effects", u64(secondary), "count", one_campaign},
      {"nftape.settle_ms", median(settle_ms), "ms",
       n_of(setups.samples().size(), "cold set-ups")},
      {"nftape.snapshot_capture_ms", median(capture_ms), "ms",
       n_of(setups.samples().size(), "cold set-ups")},
      {"nftape.snapshot_restore_ms", median(d.restore_ms), "ms",
       n_of(d.restore_ms.size(), "direct runs")},
      {"nftape.run_ms", median(d.run_ms), "ms",
       n_of(d.run_ms.size(), "direct runs")},
      {"orchestrator.spec_ms", spec_ms, "ms", "n=15 parse+expand"},
      {"orchestrator.jsonl_us_per_record", jsonl.ns_per_unit / 1e3, "us",
       per(jsonl, "records")},
      {"orchestrator.json_parse_us_per_record", json_parse.ns_per_unit / 1e3,
       "us", per(json_parse, "records")},
      {"orchestrator.pool_busy_frac", median(busy), "ratio",
       n_of(plain.size(), "campaigns")},
      {"orchestrator.retries", u64(retries), "count", one_campaign},
      {"orchestrator.timeouts", u64(timeouts), "count", one_campaign},
      {"adaptive.rounds", static_cast<double>(rep.rounds), "count",
       one_campaign},
      {"adaptive.runs", file.strategy ? static_cast<double>(n) : 0.0, "count",
       one_campaign},
      {"adaptive.plan_ms", median(plan_ms), "ms",
       n_of(traced.size(), "traced campaigns")},
      {"monitor.fold_us_per_record", fold.ns_per_unit / 1e3, "us",
       per(fold, "records")},
      {"monitor.parse_us_per_record", parse_record.ns_per_unit / 1e3, "us",
       per(parse_record, "records")},
      {"trace.overhead_frac", median(traced_s) / plain_med - 1.0, "ratio",
       n_of(traced.size(), "traced vs ") + std::to_string(plain.size()) +
           " untraced"},
  };
  const double failed_frac = static_cast<double>(check.failed()) /
                             static_cast<double>(check.attempted());
  m.push_back({"failed_frac", failed_frac, "ratio",
               n_of(check.attempted(), "runs attempted")});
  print_table("per-layer:", m);

  // Every layer the benchmark names, datapath first. The datapath layers
  // have no span of their own (they run inside CampaignRunner::run); their
  // counts and probes are the per-layer metrics above.
  static const char* const kLayers[] = {
      "sim",     "link",  "alloc",        "core",     "myrinet", "host",
      "fc",      "analysis", "nftape", "orchestrator", "adaptive", "monitor"};
  const auto is_campaign = [](const perfbench::Span& root) {
    return root.name == kCampaignSpanGrid || root.name == kCampaignSpanAdaptive;
  };
  for (const bool campaigns : {true, false}) {
    std::printf("self time by layer, %s:\n",
                campaigns ? "traced campaigns" : "direct run and probes");
    std::printf("  %-14s %8s %12s %12s\n", "layer", "spans", "total ms",
                "self ms");
    const auto times = tracer.layer_times([&](const perfbench::Span& root) {
      return is_campaign(root) == campaigns;
    });
    for (const char* layer : kLayers) {
      const auto it = std::find_if(times.begin(), times.end(), [&](const auto& lt) {
        return lt.layer == layer;
      });
      if (it != times.end()) {
        std::printf("  %-14s %8zu %12.3f %12.3f\n", layer, it->spans,
                    it->total_ms, it->self_ms);
      } else {
        const bool datapath = std::string_view(layer) != "nftape" &&
                              std::string_view(layer) != "orchestrator" &&
                              std::string_view(layer) != "adaptive" &&
                              std::string_view(layer) != "monitor";
        std::printf("  %-14s %8d %12s %12s  (%s)\n", layer, 0, "-", "-",
                    datapath ? "inside the nftape run spans" : "not used here");
      }
    }
  }
  std::printf("tracing overhead: traced campaign_s %.4f s vs untraced %.4f s "
              "(%+.2f%%)\n",
              median(traced_s), plain_med,
              100.0 * (median(traced_s) / plain_med - 1.0));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  print_provenance(o);

  double spec_ms = 0.0;
  orch::CampaignFile file;
  try {
    file = load_spec(o, &spec_ms);
  } catch (const orch::CampaignFileError& e) {
    usage_error(e.what());
  }

  SetupSampler setups(representative_run(file));
  Tracer tracer;
  Checker check;
  const std::vector<Metric> metrics =
      o.trace ? per_layer(file, o, spec_ms, setups, tracer, check)
              : end_to_end(file, o, setups, check);

  if (o.trace && !o.trace_out.empty()) {
    if (tracer.write_chrome(o.trace_out)) {
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  o.trace_out.c_str());
    } else {
      std::printf("trace: cannot write %s\n", o.trace_out.c_str());
    }
  }
  for (const auto& msg : check.messages()) std::printf("CHECK FAILED: %s\n", msg.c_str());
  std::printf("%s\n", result_json(check, metrics).c_str());
  return check.failed() == 0 ? 0 : 1;
}
