// The benchmark's measuring stages. Every stage drives the decoders only
// through their public API and times them from outside:
//
//   decoder stage — each decoder (sequential, GOP-parallel, slice-parallel
//     improved, adaptive, one DecodeServer session) decodes the workload's
//     files in interleaved rounds; throughput in macroblocks/s per round.
//   serving stage — one generator thread submits seeded open-loop
//     arrivals (Poisson users or real-time viewers) of segment requests
//     to one DecodeServer at two fixed rates; each request is timed from
//     its due time until wait() returns in a waiter thread of its own.
//   probes (traced run only) — start-code and structure scans, per-picture
//     decode by picture type, the active IDCT and MC kernels, one-worker
//     runs.
//
// Every decode is checked against the sequential reference taken at
// set-up; every mismatch, !ok, hang, rejection or pool leak is a failure.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pb/inputs.h"
#include "pb/spans.h"

namespace perfbench {

enum DecoderKind { kSeq, kGop, kSlice, kAdaptive, kServer1, kDecoderCount };
[[nodiscard]] const char* decoder_name(int d);

/// Operations attempted and failed, with the first few failure reasons.
struct Tally {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> reasons;
  void check(bool good, const std::string& why);
};

struct LoadStats {  // one parallel decoder over the stage
  std::vector<double> utilization, sync_ratio, imbalance;  // per decode
  std::vector<double> scan_s;  // per round, summed over files
  double peak_frame_mb = 0.0;  // traced run only (needs a tracker)
  std::uint64_t exploded_gops = 0, gop_mode_gops = 0, stolen_tasks = 0;
  std::uint64_t pool_hits = 0, pool_misses = 0;
};

struct DecoderStage {
  std::array<std::vector<double>, kDecoderCount> mb_per_s;  // per round
  std::int64_t macroblocks = 0;  // in one round's files
  /// Each file's fastest decode over the rounds, per decoder.
  std::array<std::vector<double>, kDecoderCount> best_file_s;
  /// A round's macroblocks over the sum of each file's fastest decode
  /// (min-of-N time per file): interference from other tenants only ever
  /// slows a decode, and short files catch the host's quiet moments.
  [[nodiscard]] double best_mb_per_s(int d) const;
  std::array<LoadStats, kDecoderCount> load;
  std::vector<double> traced_round_s, untraced_round_s;  // traced run only
  // Sequential decoder's work counts and wall time, summed over every
  // timed sequential decode of the stage.
  std::uint64_t seq_macroblocks = 0, seq_bits = 0, seq_coded_blocks = 0,
                seq_mc_blocks = 0;
  double seq_total_s = 0.0;
};

struct StageOptions {
  int workers = 4;
  bool traced = false;  // pair each round with a traced one, track memory
};

/// The decoder stage, run a round at a time so that its rounds spread
/// over the run, between serving slices. Construction runs the untimed
/// warm-up: one decode of every file per decoder.
class DecoderStageRunner {
 public:
  DecoderStageRunner(const Inputs& in, const StageOptions& opt, SpanLog& log,
                     Tally& tally);
  ~DecoderStageRunner();
  DecoderStageRunner(const DecoderStageRunner&) = delete;
  DecoderStageRunner& operator=(const DecoderStageRunner&) = delete;

  /// One timed round; in a traced run, a traced round and then an
  /// untraced one.
  void run_round();
  [[nodiscard]] const DecoderStage& result() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct ServePhaseStats {
  std::string name;
  double rate_per_s = 0.0;
  double seconds = 0.0;  // length of the phase: requests / rate
  int attempted = 0;
  int on_time = 0;  // finished ok, verified, within the deadline
  std::vector<double> latency_ms;  // verified requests, from due time
  int backlog_mid = 0, backlog_end = 0;  // sessions outstanding
  double utilization = 0.0;  // pool busy / (workers x phase wall time)
  double sync_ratio = 0.0;
  [[nodiscard]] bool backlog_grew() const;
};

/// Merges the slices of each phase name, in order of first appearance:
/// latencies and counts add up, utilization and sync ratio are averaged
/// over time, backlog_mid is the largest mid-slice backlog and backlog_end
/// the last slice's.
[[nodiscard]] std::vector<ServePhaseStats> pool_by_name(
    const std::vector<ServePhaseStats>& slices);

/// The latencies of every slice called `name` but the slowest one (by
/// mean latency, which a slow spell raises whether it shifts the middle
/// or only the tail); a single slice is kept. The slices of a phase are
/// replicas, so dropping the slowest drops the worst slow spell of the
/// host, as min-of-N time does for throughput.
[[nodiscard]] std::vector<double> latencies_but_slowest(
    const std::vector<ServePhaseStats>& slices, const std::string& name);

struct ServeStage {
  std::vector<ServePhaseStats> phases;
  int rejected = 0, failed = 0;  // timed requests
  double gen_lag_max_ms = 0.0;   // generator lateness, timed requests
  std::vector<double> submit_us;
  std::vector<double> queued_ms;
  double frame_latency_p50_ms = 0.0;  // over every verified session's
  double frame_latency_p99_ms = 0.0;  // frames, queue-inclusive
  std::uint64_t exploded_gops = 0, gop_mode_gops = 0;
  std::uint64_t pool_hits = 0, pool_misses = 0;
};

/// Serves `phases` back to back after `warmup_requests` untimed ones.
/// Each phase starts from an idle server (every earlier request ended);
/// `before_phase(p)` runs just before phase p starts.
[[nodiscard]] ServeStage run_serve_stage(
    const Inputs& in, const std::vector<Phase>& phases, int warmup_requests,
    int workers, SpanLog& log, Tally& tally,
    const std::function<void(int)>& before_phase);

/// Per-layer probes of the traced run; every value is keyed by its
/// per-layer metric name.
struct ProbeResults {
  double startcode_scan_gb_per_s = 0.0;
  double scan_structure_us_per_gop = 0.0;
  std::array<double, 3> picture_ns_per_mb{};  // I, P, B (0 = none decoded)
  double idct_ns_per_block = 0.0;
  double mc_ns_per_mb = 0.0;
  double gop_one_worker_ratio = 0.0;
  double adaptive_one_worker_ratio = 0.0;
};

[[nodiscard]] ProbeResults run_probes(const Inputs& in, SpanLog& log,
                                      Tally& tally);

}  // namespace perfbench
