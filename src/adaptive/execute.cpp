#include "adaptive/execute.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "monitor/feed.hpp"
#include "monitor/jsonl_reader.hpp"
#include "orchestrator/shard.hpp"

namespace hsfi::adaptive {

namespace {

using orchestrator::CampaignFile;
using orchestrator::RunRecord;

/// Static campaigns publish to the feed from the runner's record stream
/// (strategy campaigns hand the feed to the Controller instead).
class FeedSink final : public orchestrator::RecordSink {
 public:
  explicit FeedSink(monitor::StreamingFeed& feed) : feed_(feed) {}
  void on_record(const RunRecord& record) override { feed_.publish(record); }

 private:
  monitor::StreamingFeed& feed_;
};

ExecuteResult execute_static(const CampaignFile& file,
                             const ExecuteOptions& opts) {
  const auto mine = orchestrator::shard_runs(
      orchestrator::expand_campaign(file), opts.shard, opts.of);

  orchestrator::RunnerConfig rc;
  rc.workers = opts.workers;
  rc.snapshots = opts.snapshots;
  rc.on_progress = opts.on_progress;
  std::unique_ptr<FeedSink> feed_sink;
  if (opts.feed != nullptr) {
    feed_sink = std::make_unique<FeedSink>(*opts.feed);
    rc.sinks.push_back(feed_sink.get());
  }
  rc.sinks.insert(rc.sinks.end(), opts.sinks.begin(), opts.sinks.end());
  orchestrator::Runner runner(rc);

  ExecuteResult result;
  if (opts.out.empty()) {
    result.records = runner.run_all(mine);
    return result;
  }
  const std::string data_file =
      orchestrator::shard_path(opts.out, opts.shard, opts.of);
  orchestrator::Checkpoint identity;
  identity.spec_digest = file.digest;
  identity.shard = opts.shard;
  identity.of = opts.of;
  orchestrator::ShardOptions so;
  so.batch = opts.batch != 0 ? opts.batch : file.checkpoint_batch;
  so.resume = opts.resume;
  so.include_timing = opts.timing;
  if (opts.after_durable) {
    so.after_batch = [&](const orchestrator::Checkpoint& c) {
      opts.after_durable(data_file, c.batches);
    };
  }
  auto sharded =
      orchestrator::run_sharded(runner, mine, data_file, identity, so);
  result.records = std::move(sharded.executed);
  result.restored = sharded.restored;
  return result;
}

[[noreturn]] void tampered(const std::string& data_file,
                           const std::string& what) {
  throw ReplayMismatch("adaptive resume: " + data_file + " " + what +
                       " — the data file does not match its checkpoint");
}

/// The durable record prefix of an adaptive data file, grouped per target
/// and round for Controller::run. Emission is target-major and round-major
/// within a target, so every target's records must walk rounds 0, 1, ...
/// without gaps and end on exactly its cursor's round count.
std::vector<Replay> load_replay(const std::string& data_file,
                                const orchestrator::AdaptiveCheckpoint& ckpt) {
  std::ifstream data(data_file, std::ios::binary | std::ios::ate);
  if (!data) tampered(data_file, "is missing");
  if (static_cast<std::uint64_t>(data.tellg()) < ckpt.bytes) {
    tampered(data_file, "is shorter than its checkpoint (" +
                            std::to_string(ckpt.bytes) + " bytes)");
  }
  data.seekg(0);
  std::string prefix(ckpt.bytes, '\0');
  data.read(prefix.data(), static_cast<std::streamsize>(ckpt.bytes));
  std::istringstream lines(prefix);
  std::string line;

  std::vector<Replay> replays(ckpt.targets.size());
  for (std::size_t ti = 0; ti < ckpt.targets.size(); ++ti) {
    const auto& cursor = ckpt.targets[ti];
    Replay& rounds = replays[ti];
    for (std::uint64_t n = 0; n < cursor.records; ++n) {
      if (!std::getline(lines, line)) {
        tampered(data_file, "has fewer records than its checkpoint");
      }
      auto rec = monitor::parse_record(line);
      if (!rec) tampered(data_file, "holds an unparseable record: " + line);
      const std::uint64_t seen = rounds.size();
      if (rec->round >= cursor.rounds ||
          (rec->round != seen && rec->round + 1 != seen)) {
        tampered(data_file,
                 "record '" + rec->name + "' is from round " +
                     std::to_string(rec->round) + " but target " +
                     std::to_string(ti) + " has " + std::to_string(seen) +
                     " rounds so far of the " +
                     std::to_string(cursor.rounds) + " durable");
      }
      if (rec->round == seen) rounds.emplace_back();
      rounds.back().push_back(std::move(*rec));
    }
    if (rounds.size() != cursor.rounds) {
      tampered(data_file, "covers " + std::to_string(rounds.size()) +
                              " rounds of target " + std::to_string(ti) +
                              ", its checkpoint " +
                              std::to_string(cursor.rounds));
    }
  }
  return replays;
}

ExecuteResult execute_adaptive(const CampaignFile& file,
                               const ExecuteOptions& opts) {
  if (opts.of > 1) {
    throw orchestrator::ShardError(
        "shard: sharding applies to static campaigns; '" + file.name +
        "' is steered by strategy " + file.strategy->name);
  }
  const std::string sidecar =
      opts.out.empty() ? "" : orchestrator::checkpoint_path(opts.out);
  orchestrator::AdaptiveCheckpoint ckpt;
  ckpt.spec_digest = file.digest;
  ckpt.targets.resize(file.targets.size());
  std::vector<Replay> replays(file.targets.size());
  if (opts.resume && !opts.out.empty()) {
    if (auto saved = orchestrator::read_adaptive_checkpoint(
            sidecar, file.digest, file.targets.size())) {
      ckpt = std::move(*saved);
      replays = load_replay(opts.out, ckpt);
    }
  }
  std::unique_ptr<orchestrator::DurableAppender> out;
  if (!opts.out.empty()) {
    out = std::make_unique<orchestrator::DurableAppender>(opts.out,
                                                          ckpt.bytes);
  }
  // Round barrier = durability barrier: data first, cursor second.
  const auto commit = [&] {
    out->sync();
    ckpt.bytes = out->bytes();
    orchestrator::write_adaptive_checkpoint(sidecar, ckpt);
  };

  ExecuteResult result;
  std::size_t index_base = 0;
  std::uint64_t durable_rounds = 0;
  for (std::size_t ti = 0; ti < file.targets.size(); ++ti) {
    const auto& target = file.targets[ti];
    auto& cursor = ckpt.targets[ti];
    const std::size_t replayed_rounds = replays[ti].size();

    ControllerConfig cc;
    cc.runner.workers = opts.workers;
    cc.runner.snapshots = opts.snapshots;
    cc.runner.sinks = opts.sinks;
    cc.feed = opts.feed;
    cc.early_cancel = opts.early_cancel;
    cc.on_round = [&](const RoundSummary& s) {
      if (opts.on_round) opts.on_round(target.name, s);
      if (s.round < replayed_rounds || out == nullptr) return;
      cursor.rounds = s.round + 1;
      cursor.records = s.total_runs;
      commit();
      if (opts.after_durable) opts.after_durable(opts.out, ++durable_rounds);
    };
    if (out != nullptr) {
      cc.on_record = [&](const RunRecord& r) {
        out->append(orchestrator::to_jsonl(r, opts.timing) + "\n");
      };
    }
    Controller controller(adaptive_spec(file, target, index_base),
                          std::move(cc));
    const auto cells = controller.cells();
    const auto& workload = target.sweep.base.workload;
    auto strategy =
        make_strategy(*file.strategy, cells, target.sweep.replicates,
                      workload.udp_interval, workload.burst_size);
    auto outcome = controller.run(*strategy, replays[ti]);

    const std::size_t emitted = outcome.replayed + outcome.records.size();
    index_base += emitted;
    result.restored += outcome.replayed;
    result.rounds += outcome.rounds;
    result.converged = result.converged && outcome.converged;
    for (auto& r : outcome.records) result.records.push_back(std::move(r));
    if (const auto* bisect =
            dynamic_cast<const BisectionStrategy*>(strategy.get())) {
      const std::string prefix = target.name.empty() ? "" : target.name + ":";
      for (std::size_t i = 0; i < cells.size(); ++i) {
        result.thresholds.push_back({prefix + controller.cell_name(cells[i]),
                                     bisect->thresholds()[i]});
      }
    }
    cursor = {outcome.rounds, emitted, true};
    if (out != nullptr) commit();
  }
  return result;
}

}  // namespace

std::unique_ptr<Strategy> make_strategy(const orchestrator::StrategySpec& spec,
                                        std::vector<Cell> cells,
                                        std::size_t replicates,
                                        sim::Duration udp_interval,
                                        std::size_t burst_size) {
  if (spec.name == "bisect") {
    BisectionConfig bc;
    bc.lo = spec.axis_lo;
    bc.hi = spec.axis_hi;
    bc.tolerance = spec.tolerance_us;
    bc.higher_is_more_intense = nftape::higher_is_more_intense(spec.knob);
    bc.min_manifested = 3;
    return std::make_unique<BisectionStrategy>(std::move(cells), bc);
  }
  if (spec.name == "coverage") {
    CoverageConfig cc;
    // Explore at the axis's intense end, whichever end that is for the knob.
    cc.knob_value = nftape::higher_is_more_intense(spec.knob) ? spec.axis_hi
                                                              : spec.axis_lo;
    cc.target_count = spec.target_count;
    cc.batch_replicates = replicates;
    return std::make_unique<CoverageStrategy>(std::move(cells), cc);
  }
  if (spec.name == "fixed") {
    FixedGridConfig fg;
    switch (spec.knob) {
      case nftape::Knob::kUdpIntervalUs:
        fg.knob_values = {sim::to_nanoseconds(udp_interval) / 1000.0};
        break;
      case nftape::Knob::kBurstSize:
        fg.knob_values = {static_cast<double>(burst_size)};
        break;
      case nftape::Knob::kSeuLfsrBits:
        throw std::invalid_argument(
            "strategy fixed has no base value for knob seu-bits (each "
            "fault carries its own LFSR mask)");
    }
    fg.replicates = replicates;
    return std::make_unique<FixedGridStrategy>(std::move(cells), fg);
  }
  throw std::invalid_argument("unknown strategy '" + spec.name + "'");
}

AdaptiveSpec adaptive_spec(const CampaignFile& file,
                           const orchestrator::CampaignTarget& target,
                           std::size_t index_base) {
  const orchestrator::SweepSpec& sweep = target.sweep;
  AdaptiveSpec a;
  a.name = target.name.empty() ? file.name : file.name + ":" + target.name;
  a.base = sweep.base;
  a.testbed = sweep.testbed;
  a.startup_settle = sweep.startup_settle;
  a.faults = sweep.faults;
  a.directions = sweep.directions;
  a.knob = file.strategy.value().knob;
  a.base_seed = sweep.base_seed;
  a.max_rounds = file.strategy->max_rounds;
  a.name_prefix = target.name.empty() ? "" : target.name + ":";
  a.index_base = index_base;
  return a;
}

ExecuteResult execute_campaign(const CampaignFile& file,
                               const ExecuteOptions& opts) {
  return file.strategy.has_value() ? execute_adaptive(file, opts)
                                   : execute_static(file, opts);
}

}  // namespace hsfi::adaptive
