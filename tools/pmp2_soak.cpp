// pmp2_soak — fault-injection soak harness (docs/ROBUSTNESS.md).
//
// Fuzzes the Table-1 stream matrix through the deterministic bitstream
// corruptor (src/inject) and decodes every corrupted stream with all three
// parallel decoders (GOP, slice, adaptive) in bounded-recovery mode (GOP
// quarantine + watchdog). The run is budgeted by wall time and/or
// iteration count and exits nonzero on any crash, hang, or invariant
// violation — the CI gate that corrupt input degrades decode quality,
// never decode liveness.
//
//   pmp2_soak --streams bench_streams --budget 60s --seed 1
//   pmp2_soak --budget 10s --iters 2 --psnr --report-out soak.json
//
// Streams: every *.m2v under --streams when the directory has any;
// otherwise the 16 Table-1 specs are generated (and cached) via the bench
// stream cache. Each iteration applies plan_fault(seed, i) — a varied,
// replayable FaultSpec — and every reported violation prints the stream
// plus FaultSpec::name() needed to replay it.
//
// Invariants checked per iteration:
//   * no hang: both decoders terminate and RunResult::hung stays false
//     (the coordinator/display watchdogs convert a would-be deadlock into
//     a failed run, which IS a violation — recovery must not need them);
//   * clean baseline: the uncorrupted stream decodes ok on all three
//     decoders with identical checksums (checked once per stream);
//   * dispatch equivalence: whenever both succeed on a corrupt stream, the
//     adaptive decoder's output (the DecodeServer dispatcher, one
//     session) is byte-identical to the GOP decoder's — whole vs exploded
//     dispatch must never change a single output byte, faults included;
//   * a failed corrupt run must say why (error records or zero pictures).
//
// File-backed streams (--streams) are memory-mapped, so repeated passes
// over a large matrix share page cache instead of re-reading copies.
//
// Exit codes: 0 clean, 1 violations, 2 operational failure (no streams).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "inject/degrade.h"
#include "inject/fault.h"
#include "io/mapped_file.h"
#include "obs/live/sampler.h"
#include "obs/live/telemetry.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"
#include "util/flags.h"
#include "util/timer.h"

using namespace pmp2;
namespace fs = std::filesystem;

namespace {

struct SoakStream {
  std::string name;
  io::MappedFile file;              // file-backed streams (mmap)
  std::vector<std::uint8_t> data;   // generated streams
  std::uint64_t clean_checksum = 0;

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return file.size() > 0 ? file.bytes()
                           : std::span<const std::uint8_t>(data);
  }
  // Per-stream tallies.
  int iterations = 0;
  int ok_runs = 0;
  int degraded_runs = 0;
  int failed_runs = 0;
  int violations = 0;
};

/// Parses "60s", "1500ms", "2m", or a bare number of seconds. <= 0 on bad
/// input (caller treats the budget as disabled then).
double parse_budget(const std::string& text) {
  if (text.empty()) return 0.0;
  double scale = 1.0;
  std::string number = text;
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return number.size() > n &&
           number.compare(number.size() - n, n, suffix) == 0;
  };
  if (ends_with("ms")) {
    scale = 1e-3;
    number.resize(number.size() - 2);
  } else if (ends_with("s")) {
    number.resize(number.size() - 1);
  } else if (ends_with("m")) {
    scale = 60.0;
    number.resize(number.size() - 1);
  }
  try {
    return std::stod(number) * scale;
  } catch (...) {
    return 0.0;
  }
}

std::vector<SoakStream> collect_streams(const Flags& flags) {
  std::vector<SoakStream> out;
  const std::string dir = flags.get_string("streams", "bench_streams");
  std::error_code ec;
  if (fs::is_directory(dir, ec)) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".m2v") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      SoakStream s;
      s.name = path.filename().string();
      if (s.file.open(path.string()) && s.file.size() > 0) {
        out.push_back(std::move(s));
      }
    }
  }
  if (!out.empty()) return out;
  // Fresh checkout: generate the Table-1 matrix through the bench cache.
  const auto pictures = static_cast<int>(flags.get_int("pictures", 0));
  for (auto spec : streamgen::table1_specs(0)) {
    spec.pictures =
        pictures > 0 ? pictures : bench::default_pictures(spec.width);
    if (spec.pictures < spec.gop_size) spec.pictures = spec.gop_size;
    SoakStream s;
    s.name = spec.name();
    s.data = bench::load_or_generate(spec);
    out.push_back(std::move(s));
  }
  return out;
}

struct DecodeSetup {
  int workers = 4;
  std::int64_t watchdog_ns = 0;
  obs::Registry* metrics = nullptr;
  // One soak-wide live surface shared by every iteration (same worker
  // indices each run), so --live-out shows soak progress across streams.
  obs::live::LiveTelemetry* live = nullptr;
};

parallel::RunResult decode_gop_mode(std::span<const std::uint8_t> stream,
                                    const DecodeSetup& setup, bool recover,
                                    const parallel::FrameCallback& cb = {}) {
  parallel::GopDecoderConfig config;
  config.workers = setup.workers;
  config.quarantine_gops = recover;
  config.watchdog_ns = setup.watchdog_ns;
  config.metrics = setup.metrics;
  config.live = setup.live;
  return parallel::GopParallelDecoder(config).decode(stream, cb);
}

parallel::RunResult decode_slice_mode(std::span<const std::uint8_t> stream,
                                      const DecodeSetup& setup, bool recover,
                                      const parallel::FrameCallback& cb = {}) {
  parallel::SliceDecoderConfig config;
  config.workers = setup.workers;
  config.quarantine_gops = recover;
  config.watchdog_ns = setup.watchdog_ns;
  config.metrics = setup.metrics;
  config.live = setup.live;
  return parallel::SliceParallelDecoder(config).decode(stream, cb);
}

/// The adaptive decoder is a one-session DecodeServer; its telemetry
/// goes to that session's own surface, not the soak-wide one.
parallel::RunResult decode_adaptive_mode(
    std::span<const std::uint8_t> stream, const DecodeSetup& setup,
    bool recover, const parallel::FrameCallback& cb = {}) {
  serve::ServerConfig config;
  config.workers = setup.workers;
  config.watchdog_ns = setup.watchdog_ns;
  config.metrics = setup.metrics;
  serve::SessionConfig session;
  session.max_queued_gops = 0;
  session.quarantine_gops = recover;
  session.on_frame = cb;
  return parallel::decode_as_session(config, stream, std::move(session));
}

/// One corrupt decode, invariant-checked. Returns true when no invariant
/// was violated (degraded and even failed runs are acceptable outcomes;
/// hangs and unexplained failures are not).
bool check_run(const parallel::RunResult& r, SoakStream& stream,
               const inject::FaultSpec& fault, const char* decoder) {
  bool ok = true;
  if (r.hung) {
    std::fprintf(stderr,
                 "VIOLATION hang: stream=%s fault=%s decoder=%s (%s)\n",
                 stream.name.c_str(), fault.name().c_str(), decoder,
                 r.hang.to_string().c_str());
    ok = false;
  }
  if (!r.ok && !r.hung && r.errors.empty() && r.pictures > 0) {
    std::fprintf(
        stderr,
        "VIOLATION unexplained failure: stream=%s fault=%s decoder=%s\n",
        stream.name.c_str(), fault.name().c_str(), decoder);
    ok = false;
  }
  if (!ok) {
    ++stream.violations;
  } else if (!r.ok) {
    ++stream.failed_runs;
  } else if (r.degraded()) {
    ++stream.degraded_runs;
  } else {
    ++stream.ok_runs;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::apply_kernels_flag(flags);  // --kernels=scalar|sse2|avx2
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double budget_s = parse_budget(flags.get_string("budget", "30s"));
  const auto max_iters = flags.get_int("iters", 0);  // per stream; 0 = inf
  const bool verbose = flags.get_bool("verbose", false);
  const bool psnr = flags.get_bool("psnr", false);

  DecodeSetup setup;
  setup.workers = static_cast<int>(flags.get_int("workers", 4));
  setup.watchdog_ns =
      flags.get_int("watchdog-ms", 10'000) * std::int64_t{1'000'000};
  obs::Registry metrics;
  setup.metrics = &metrics;

  // Live telemetry: one soak-wide surface shared by every iteration, so a
  // pmp2_top attached to --live-out follows the whole fuzz run.
  const std::string live_out = flags.get_string("live-out", "");
  const std::string prom_out = flags.get_string("prom-out", "");
  const std::int64_t live_interval_ms =
      flags.get_int("live-interval-ms", 250);
  obs::live::SloRules slo;
  const std::string slo_spec = flags.get_string("slo", "");
  if (!slo_spec.empty()) {
    std::string error;
    if (!obs::live::SloRules::parse(slo_spec, slo, &error)) {
      std::fprintf(stderr, "pmp2_soak: bad --slo: %s\n", error.c_str());
      return 2;
    }
  }
  std::unique_ptr<obs::live::LiveTelemetry> live;
  std::unique_ptr<obs::live::LiveSampler> sampler;
  if (!live_out.empty() || !prom_out.empty() || slo.any()) {
    live = std::make_unique<obs::live::LiveTelemetry>(setup.workers);
    obs::live::LiveSampler::Options live_options;
    live_options.interval_ms = live_interval_ms;
    live_options.slo = slo;
    live_options.ndjson_path = live_out;
    live_options.prometheus_path = prom_out;
    live_options.on_alert = [](const obs::live::Alert& alert, bool fired) {
      std::fprintf(stderr,
                   "live-alert %s: %s value=%.3f threshold=%.3f\n",
                   fired ? "FIRED" : "cleared", alert.rule.c_str(),
                   alert.value, alert.threshold);
    };
    sampler = std::make_unique<obs::live::LiveSampler>(*live, live_options);
    sampler->start();
    setup.live = live.get();
  }

  std::vector<SoakStream> streams = collect_streams(flags);
  if (streams.empty()) {
    std::fprintf(stderr, "pmp2_soak: no streams to fuzz\n");
    return 2;
  }
  std::printf("pmp2_soak: %zu streams, budget %.1fs, seed %llu\n",
              streams.size(), budget_s,
              static_cast<unsigned long long>(seed));

  int violations = 0;
  // Clean baseline: streams the sequential reference decoder cannot handle
  // are skipped (stale cache files, foreign .m2v) — there is nothing to
  // degrade from. On decodable streams both parallel decoders must agree
  // bit-exactly, or the baseline itself is broken.
  std::erase_if(streams, [&](SoakStream& s) {
    mpeg2::Decoder reference;
    if (!reference.decode(s.bytes()).ok) {
      std::fprintf(stderr, "pmp2_soak: skipping undecodable %s\n",
                   s.name.c_str());
      return true;
    }
    const auto gop = decode_gop_mode(s.bytes(), setup, false);
    const auto slice = decode_slice_mode(s.bytes(), setup, false);
    const auto adaptive = decode_adaptive_mode(s.bytes(), setup, false);
    if (!gop.ok || !slice.ok || !adaptive.ok ||
        gop.checksum != slice.checksum ||
        gop.checksum != adaptive.checksum) {
      std::fprintf(stderr,
                   "VIOLATION clean baseline: stream=%s gop_ok=%d "
                   "slice_ok=%d adaptive_ok=%d checksums %llx/%llx/%llx\n",
                   s.name.c_str(), gop.ok, slice.ok, adaptive.ok,
                   static_cast<unsigned long long>(gop.checksum),
                   static_cast<unsigned long long>(slice.checksum),
                   static_cast<unsigned long long>(adaptive.checksum));
      ++violations;
    }
    s.clean_checksum = gop.checksum;
    return false;
  });
  if (streams.empty()) {
    std::fprintf(stderr, "pmp2_soak: no decodable streams to fuzz\n");
    return 2;
  }

  inject::PsnrAccumulator psnr_acc;
  WallTimer timer;
  std::uint64_t fault_index = 0;
  std::int64_t total_iterations = 0;
  bool out_of_budget = false;
  // Round-robin passes over the stream matrix until the budget runs out;
  // at least one full pass always happens so every stream gets fuzzed.
  for (int pass = 0; !out_of_budget; ++pass) {
    if (max_iters > 0 && pass >= max_iters) break;
    for (auto& s : streams) {
      if (pass > 0 && budget_s > 0 && timer.elapsed_s() >= budget_s) {
        out_of_budget = true;
        break;
      }
      const inject::FaultSpec fault = inject::plan_fault(seed, fault_index++);
      const auto corrupt = inject::apply_fault(s.bytes(), fault);
      if (verbose) {
        std::printf("  [%s] %s (%zu -> %zu bytes)\n", s.name.c_str(),
                    fault.name().c_str(), s.bytes().size(), corrupt.size());
      }
      std::vector<mpeg2::FramePtr> frames;
      const parallel::FrameCallback keep =
          psnr ? [&frames](mpeg2::FramePtr f) {
            frames.push_back(std::move(f));
          }
               : parallel::FrameCallback{};
      const auto gop = decode_gop_mode(corrupt, setup, true, keep);
      if (!check_run(gop, s, fault, "gop")) ++violations;
      if (psnr && gop.ok) {
        // Degradation vs the clean decode of the same stream.
        mpeg2::Decoder clean;
        const auto reference = clean.decode(s.bytes());
        const std::size_t n =
            std::min(frames.size(), reference.frames.size());
        for (std::size_t i = 0; i < n; ++i) {
          psnr_acc.add(*frames[i], *reference.frames[i]);
        }
      }
      const auto slice = decode_slice_mode(corrupt, setup, true);
      if (!check_run(slice, s, fault, "slice")) ++violations;
      const auto adaptive = decode_adaptive_mode(corrupt, setup, true);
      if (!check_run(adaptive, s, fault, "adaptive")) ++violations;
      if (adaptive.ok && gop.ok && adaptive.checksum != gop.checksum) {
        // Hybrid dispatch must be invisible in the output, faults and all.
        std::fprintf(stderr,
                     "VIOLATION dispatch equivalence: stream=%s fault=%s "
                     "adaptive %llx != gop %llx\n",
                     s.name.c_str(), fault.name().c_str(),
                     static_cast<unsigned long long>(adaptive.checksum),
                     static_cast<unsigned long long>(gop.checksum));
        ++s.violations;
        ++violations;
      }
      ++s.iterations;
      ++total_iterations;
      metrics.counter("soak.iterations").add();
    }
    if (max_iters == 0 && budget_s > 0 && timer.elapsed_s() >= budget_s) {
      break;
    }
    if (max_iters == 0 && budget_s <= 0) break;  // no budget: one pass
  }

  // Summary.
  std::printf("\n%-44s %6s %6s %9s %7s %5s\n", "stream", "iters", "ok",
              "degraded", "failed", "viol");
  int degraded_total = 0;
  for (const auto& s : streams) {
    std::printf("%-44s %6d %6d %9d %7d %5d\n", s.name.c_str(), s.iterations,
                s.ok_runs, s.degraded_runs, s.failed_runs, s.violations);
    degraded_total += s.degraded_runs;
  }
  std::printf("\n%lld iterations in %.1fs, %d violations\n",
              static_cast<long long>(3 * total_iterations),
              timer.elapsed_s(), violations);
  if (psnr && psnr_acc.frames() > 0) {
    std::printf("psnr vs clean: mean %.1f dB, min %.1f dB over %d frames "
                "(%d degraded)\n",
                psnr_acc.mean_db(), psnr_acc.min_db(), psnr_acc.frames(),
                psnr_acc.degraded_frames());
    metrics.histogram("soak.psnr_min_centidb")
        .record(static_cast<std::int64_t>(psnr_acc.min_db() * 100));
  }
  metrics.counter("soak.violations").add(violations);
  metrics.counter("soak.degraded_runs").add(degraded_total);

  if (sampler) sampler->stop();

  obs::RunReport report("pmp2_soak", "fault-injection soak over Table 1");
  report.set_meta("seed", static_cast<std::int64_t>(seed));
  report.set_meta("budget_s", budget_s);
  report.set_meta("workers", setup.workers);
  report.set_meta("violations", violations);
  if (sampler) {
    report.set_meta("live_snapshots",
                    static_cast<std::int64_t>(sampler->snapshots()));
    for (const auto& alert : sampler->alert_log()) {
      report.add_alert({alert.rule, alert.value, alert.threshold,
                        alert.fired_at_ns, alert.cleared_at_ns});
    }
    if (!live_out.empty()) {
      std::printf("wrote %s (%llu snapshots); watch with tools/pmp2_top\n",
                  live_out.c_str(),
                  static_cast<unsigned long long>(sampler->snapshots()));
    }
  }
  for (const auto& s : streams) {
    report.add_row()
        .set("stream", s.name)
        .set("iterations", s.iterations)
        .set("ok", s.ok_runs)
        .set("degraded", s.degraded_runs)
        .set("failed", s.failed_runs)
        .set("violations", s.violations);
  }
  report.attach_metrics(&metrics);
  const int finish_rc = bench::finish(flags, report);
  if (finish_rc != 0) return finish_rc;
  if (sampler && !sampler->io_ok()) {
    std::fprintf(stderr, "pmp2_soak: live exporter I/O failed\n");
    return 1;
  }
  return violations > 0 ? 1 : 0;
}
