#include "adaptive/controller.hpp"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "monitor/feed.hpp"

namespace hsfi::adaptive {

namespace {

/// Shared state the streaming callbacks read for the round in flight.
/// Mutated only at batch barriers (no workers running), read by workers
/// mid-batch under the runner's record mutex (bridge) or lock-free with
/// relaxed atomics (skip flags).
struct RoundStream {
  const std::vector<RunRequest>* requests = nullptr;
  std::size_t first_index = 0;
};

/// The RecordSink the controller installs when a feed is attached:
/// publishes each completed record mid-batch and relays the strategy's
/// streaming verdict into the per-cell skip flags (live mode only).
class StreamBridge final : public orchestrator::RecordSink {
 public:
  StreamBridge(monitor::StreamingFeed& feed, Strategy& strategy,
               const RoundStream& stream, std::vector<std::atomic<bool>>& skip,
               std::size_t directions, bool early_cancel)
      : feed_(feed),
        strategy_(strategy),
        stream_(stream),
        skip_(skip),
        directions_(directions),
        early_cancel_(early_cancel) {}

  void on_record(const orchestrator::RunRecord& rec) override {
    feed_.publish(rec);
    if (stream_.requests == nullptr) return;
    const std::size_t i = rec.index - stream_.first_index;
    if (i >= stream_.requests->size()) return;
    const RunRequest& req = (*stream_.requests)[i];

    Observation obs;
    obs.request = req;
    obs.round = rec.round;
    obs.ok = rec.outcome == orchestrator::RunOutcome::kOk;
    obs.injections = rec.result.injections;
    obs.duplicates = rec.result.duplicates();
    obs.manifestations = rec.result.manifestations;
    const bool redundant = strategy_.observe_streaming(obs);
    if (early_cancel_ && redundant) {
      skip_[req.cell.fault * directions_ + req.cell.direction].store(
          true, std::memory_order_relaxed);
    }
  }

 private:
  monitor::StreamingFeed& feed_;
  Strategy& strategy_;
  const RoundStream& stream_;
  std::vector<std::atomic<bool>>& skip_;
  std::size_t directions_;
  bool early_cancel_;
};

/// Deterministic short rendering of a knob value for run names ("112.5",
/// "8"). %.6g keeps sub-integer probes distinguishable without trailing
/// zero noise.
std::string knob_tag(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

Controller::Controller(AdaptiveSpec spec, ControllerConfig config)
    : spec_(std::move(spec)), config_(std::move(config)) {
  if (spec_.faults.empty()) {
    spec_.faults.push_back({"baseline", std::nullopt, ""});
  }
  if (spec_.directions.empty()) {
    spec_.directions = {orchestrator::FaultDirection::kBoth};
  }
  startup_settle_ = spec_.startup_settle > 0
                        ? spec_.startup_settle
                        : spec_.testbed.map_period +
                              spec_.testbed.map_reply_window +
                              sim::milliseconds(50);
}

std::vector<Cell> Controller::cells() const {
  std::vector<Cell> out;
  out.reserve(spec_.faults.size() * spec_.directions.size());
  for (std::uint32_t f = 0; f < spec_.faults.size(); ++f) {
    for (std::uint32_t d = 0; d < spec_.directions.size(); ++d) {
      out.push_back({f, d});
    }
  }
  return out;
}

std::string Controller::cell_name(const Cell& cell) const {
  std::string name = spec_.faults.at(cell.fault).name;
  name += '/';
  name += to_string(spec_.directions.at(cell.direction));
  return name;
}

std::vector<orchestrator::RunSpec> Controller::expand_round(
    const std::vector<RunRequest>& requests, std::uint32_t round,
    std::size_t first_index, std::string_view strategy_name) const {
  // Replicate ordinals are per (cell, knob value) within the round, in
  // request order — the strategy's batching across cells cannot shift
  // another cell's seeds.
  std::map<std::pair<std::uint64_t, double>, std::uint32_t> replicate;
  std::vector<orchestrator::RunSpec> runs;
  runs.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RunRequest& req = requests[i];
    const auto& fault = spec_.faults.at(req.cell.fault);
    const auto dir = spec_.directions.at(req.cell.direction);
    const std::uint64_t cell_key =
        (static_cast<std::uint64_t>(req.cell.fault) << 32) |
        req.cell.direction;
    const std::uint32_t rep = replicate[{cell_key, req.knob_value}]++;

    orchestrator::RunSpec run;
    run.index = spec_.index_base + first_index + i;
    run.round = round;
    run.strategy = std::string(strategy_name);
    run.seed = derive_run_seed(spec_.base_seed, round, req.cell.fault,
                               req.cell.direction, rep);
    run.startup_settle = startup_settle_;
    run.testbed = spec_.testbed;
    run.testbed.seed = run.seed;
    run.campaign = spec_.base;
    run.campaign.seed = run.seed;
    run.campaign.name = spec_.name_prefix;
    run.campaign.name += fault.name;
    run.campaign.name += '/';
    run.campaign.name += to_string(dir);
    run.campaign.name += '/';
    run.campaign.name += std::string(to_string(spec_.knob));
    run.campaign.name += '=';
    run.campaign.name += knob_tag(req.knob_value);
    run.campaign.name += "/r";
    run.campaign.name += std::to_string(rep);
    run.campaign.fault_to_switch.reset();
    run.campaign.fault_from_switch.reset();
    if (fault.config) {
      if (dir != orchestrator::FaultDirection::kFromSwitch) {
        run.campaign.fault_to_switch = fault.config;
      }
      if (dir != orchestrator::FaultDirection::kToSwitch) {
        run.campaign.fault_from_switch = fault.config;
      }
    }
    // After fault installation, so kSeuLfsrBits sees the installed
    // directions.
    nftape::apply_knob(run.campaign, spec_.knob, req.knob_value);
    runs.push_back(std::move(run));
  }
  return runs;
}

CampaignOutcome Controller::run(Strategy& strategy) {
  return run(strategy, {});
}

CampaignOutcome Controller::run(Strategy& strategy, const Replay& replay) {
  CampaignOutcome outcome;
  // Runs accounted so far — replayed and executed. Replayed rounds are not
  // re-materialized in outcome.records, so indices/caps track this instead.
  std::size_t emitted = 0;

  // Streaming plane: state shared with the runner callbacks for the round
  // in flight. Skip flags are per cell (fault-major, like cells()).
  RoundStream stream;
  std::vector<std::atomic<bool>> skip(spec_.faults.size() *
                                      spec_.directions.size());
  orchestrator::RunnerConfig runner_config = config_.runner;
  std::unique_ptr<StreamBridge> bridge;
  if (config_.feed != nullptr) {
    bridge = std::make_unique<StreamBridge>(*config_.feed, strategy, stream,
                                            skip, spec_.directions.size(),
                                            config_.early_cancel);
    runner_config.sinks.push_back(bridge.get());
    if (config_.early_cancel) {
      const std::size_t directions = spec_.directions.size();
      runner_config.should_skip =
          [&stream, &skip, directions](const orchestrator::RunSpec& spec) {
            if (stream.requests == nullptr) return false;
            const std::size_t i = spec.index - stream.first_index;
            if (i >= stream.requests->size()) return false;
            const Cell& cell = (*stream.requests)[i].cell;
            return skip[cell.fault * directions + cell.direction].load(
                std::memory_order_relaxed);
          };
    }
  }
  orchestrator::Runner runner(runner_config);

  for (std::uint32_t round = 0; round < spec_.max_rounds; ++round) {
    const std::vector<RunRequest> requests = strategy.next_round(round);
    if (requests.empty()) {
      if (round < replay.size() && !replay[round].empty()) {
        throw ReplayMismatch(
            "adaptive resume: checkpoint has records for round " +
            std::to_string(round) +
            " but the strategy converged before it — spec drift");
      }
      outcome.converged = true;
      break;
    }
    if (spec_.max_total_runs != 0 &&
        emitted + requests.size() > spec_.max_total_runs) {
      break;
    }
    const auto runs =
        expand_round(requests, round, emitted, strategy.name());

    if (round < replay.size()) {
      // Restored round: verify the recorded runs are exactly what the
      // strategy re-derives, then feed them back without executing.
      const auto& recorded = replay[round];
      if (recorded.size() != requests.size()) {
        throw ReplayMismatch(
            "adaptive resume: round " + std::to_string(round) + " replays " +
            std::to_string(recorded.size()) + " records but the strategy " +
            "requests " + std::to_string(requests.size()) + " — spec drift");
      }
      std::vector<Observation> observations;
      observations.reserve(recorded.size());
      RoundSummary summary;
      summary.round = round;
      summary.runs = recorded.size();
      for (std::size_t i = 0; i < recorded.size(); ++i) {
        if (recorded[i].name != runs[i].campaign.name) {
          throw ReplayMismatch("adaptive resume: round " +
                               std::to_string(round) + " record " +
                               std::to_string(i) + " is '" +
                               recorded[i].name + "' but the strategy " +
                               "re-derives '" + runs[i].campaign.name +
                               "' — spec drift");
        }
        const bool ok = recorded[i].ok();
        if (!ok) ++summary.failed;
        Observation obs;
        obs.request = requests[i];
        obs.round = round;
        obs.ok = ok;
        obs.injections = recorded[i].injections;
        obs.duplicates = recorded[i].duplicates;
        obs.manifestations = recorded[i].manifestations;
        observations.push_back(obs);
        outcome.cells.add_run(cell_name(requests[i].cell), ok,
                              recorded[i].manifestations,
                              recorded[i].injections, recorded[i].duplicates);
      }
      strategy.observe(observations);
      emitted += recorded.size();
      outcome.replayed += recorded.size();
      outcome.rounds = round + 1;
      summary.total_runs = emitted;
      if (config_.on_round) config_.on_round(summary);
      continue;
    }

    // Arm the streaming callbacks for this round (no workers are running
    // between barriers, so plain writes are safe). first_index must match
    // the indices expand_round stamped, including index_base.
    stream.requests = &requests;
    stream.first_index = spec_.index_base + emitted;
    for (auto& flag : skip) flag.store(false, std::memory_order_relaxed);
    // Batch barrier: run_batch returns only when the whole round finished.
    // Records come back positional (= request order), so emission below is
    // deterministic no matter how workers interleaved.
    auto records = runner.run_batch(runs);
    stream.requests = nullptr;  // `requests` dies with this iteration

    std::vector<Observation> observations;
    observations.reserve(records.size());
    RoundSummary summary;
    summary.round = round;
    summary.runs = records.size();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const orchestrator::RunRecord& rec = records[i];
      const bool ok = rec.outcome == orchestrator::RunOutcome::kOk;
      if (!ok) ++summary.failed;

      Observation obs;
      obs.request = requests[i];
      obs.round = round;
      obs.ok = ok;
      obs.injections = rec.result.injections;
      obs.duplicates = rec.result.duplicates();
      obs.manifestations = rec.result.manifestations;
      observations.push_back(obs);

      outcome.cells.add_run(cell_name(requests[i].cell), ok,
                            rec.result.manifestations, rec.result.injections,
                            rec.result.duplicates(),
                            &rec.result.manifestation_latency);
      if (config_.on_record) config_.on_record(rec);
      outcome.records.push_back(std::move(records[i]));
    }

    strategy.observe(observations);
    emitted += records.size();
    outcome.rounds = round + 1;
    summary.total_runs = emitted;
    if (config_.on_round) config_.on_round(summary);
  }
  return outcome;
}

}  // namespace hsfi::adaptive
