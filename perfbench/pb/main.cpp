// perfbench_run: the benchmark's measuring program (driven by run.py).
//
//   perfbench_run setup   --workload W --seed S --out DIR
//       Builds the seeded inputs kSetupReps times (checking that every
//       build is byte-identical and that the sequential decoder decodes
//       every stream ok), and writes DIR/inputs.bin and DIR/setup.txt with
//       the median set-up time.
//   perfbench_run measure --workload W --seed S --seconds T --trace 0|1
//                         --in DIR [--spans-out FILE]
//       Runs the workload on the inputs from DIR. The last stdout line is
//       the result object; the line before it records the host identity
//       and the run's details. --trace 1 records spans around every API
//       call, prints the per-layer metrics and writes the spans to FILE.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mpeg2/kernels/kernels.h"
#include "obs/prof/counters.h"
#include "pb/inputs.h"
#include "pb/stages.h"
#include "pb/stats.h"
#include "util/timer.h"

namespace perfbench {
namespace {

// How a workload spends --seconds: about a share on the decoder stage's
// rounds, the rest on the serving stage, split evenly between a light and
// a peak arrival rate. The rates are fixed constants; on a 4-core VM they
// keep the pool about 20-25% (light) and 30% (peak) busy. Higher loads
// swung p95 by more than the regression bound between runs on a shared
// host.
struct Plan {
  double decoder_share;
  double light_rate;  // requests/s
  double peak_rate;
  int warmup_requests;
  double period_s;  // Phase::period_s: 0 = Poisson users, else viewers
};

// The file workloads are played: every viewer asks for the next segment
// (one GOP) as the previous one's pictures play out at 30 pictures/s.
constexpr double kGop13Seconds = 13 / 30.0;

Plan plan_for(Workload w) {
  switch (w) {
    case Workload::kPlayback704:  // 9 and 12 viewers
      return {0.35, 9 / kGop13Seconds, 12 / kGop13Seconds, 8, kGop13Seconds};
    case Workload::kServeSegments:
      return {0.2, 20.0, 30.0, 12, 0.0};
  }
  return {};
}

// The run is kBlocks blocks, each a decoder round and then a light and a
// peak slice (the order alternating), so that every stage samples the
// whole run and a slow spell of the host touches all of them alike.
constexpr int kBlocks = 4;
constexpr int kSetupReps = 3;  // set-ups per run; setup_s is their median

std::map<std::string, std::string> parse_flags(int argc, char** argv, int from) {
  std::map<std::string, std::string> f;
  for (int i = from; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) == 0) f[k.substr(2)] = argv[i + 1];
  }
  return f;
}

int workers_for_host() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------

int cmd_setup(const std::map<std::string, std::string>& f) {
  Workload w;
  if (!f.count("workload") || !parse_workload(f.at("workload"), w)) {
    std::cerr << "setup: unknown --workload\n";
    return 2;
  }
  const std::uint64_t seed = std::stoull(f.count("seed") ? f.at("seed") : "1");
  const std::string dir = f.count("out") ? f.at("out") : ".";
  std::vector<double> times, encode;
  std::vector<std::uint8_t> first;
  Inputs in;
  for (int r = 0; r < kSetupReps; ++r) {
    const pmp2::WallTimer t;
    in = build_inputs(w, seed, workers_for_host());
    times.push_back(t.elapsed_s());
    encode.push_back(in.encode_s / std::max(1, in.encoded_pictures));
    std::vector<std::uint8_t> bytes = serialize(in);
    if (r == 0) {
      first = std::move(bytes);
    } else if (bytes != first) {
      std::cerr << "setup: inputs differ between builds of one seed\n";
      return 1;
    }
  }
  for (const auto* set : {&in.files, &in.segments}) {
    for (const Stream& s : *set) {
      if (!s.reference_ok) {
        std::cerr << "setup: sequential reference decode failed\n";
        return 1;
      }
    }
  }
  std::ofstream(dir + "/inputs.bin", std::ios::binary)
      .write(reinterpret_cast<const char*>(first.data()),
             static_cast<std::streamsize>(first.size()));
  std::ofstream meta(dir + "/setup.txt");
  meta << "setup_s " << num(median(times)) << "\n"
       << "encode_s_per_picture " << num(median(encode)) << "\n";
  return meta ? 0 : 1;
}

// ---------------------------------------------------------------------------

struct Identity {
  int nproc = 0;
  std::string kernel_release, backend, cpu_features, counter_tier;

  [[nodiscard]] std::string json() const {
    return "{\"nproc\":" + std::to_string(nproc) +
           ",\"kernel_release\":" + json_str(kernel_release) +
           ",\"kernel_backend\":" + json_str(backend) +
           ",\"cpu_features\":" + json_str(cpu_features) +
           ",\"counter_tier\":" + json_str(counter_tier) + "}";
  }
};

Identity host_identity() {
  Identity id;
  id.nproc = workers_for_host();
  const auto host = pmp2::obs::prof::probe_host();
  id.kernel_release = host.kernel_release;
  id.counter_tier = host.source;
  id.backend = pmp2::mpeg2::kernels::backend_name(
      pmp2::mpeg2::kernels::active_backend());
  id.cpu_features = pmp2::mpeg2::kernels::cpu_features();
  return id;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

std::string metrics_json(const Metrics& m) {
  std::string o = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) o += ", ";
    o += json_str(m[i].first) + ": {\"value\": " + num(m[i].second.first) +
         ", \"unit\": " + json_str(m[i].second.second) + "}";
  }
  return o + "}";
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// The process's peak resident set (VmHWM) in MB, and its reset to the
// current resident set (Linux 4.0+); false where the kernel refuses.
double peak_rss_mb_now() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kb = 0.0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kb) break;
    status.ignore(1 << 12, '\n');
  }
  return kb / 1024.0;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

int cmd_measure(const std::map<std::string, std::string>& f) {
  Workload w;
  if (!f.count("workload") || !parse_workload(f.at("workload"), w)) {
    std::cerr << "measure: unknown --workload\n";
    return 2;
  }
  const double seconds = std::stod(f.count("seconds") ? f.at("seconds") : "10");
  const bool traced = f.count("trace") && f.at("trace") == "1";
  const std::string dir = f.count("in") ? f.at("in") : ".";

  std::ifstream bin(dir + "/inputs.bin", std::ios::binary);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(bin)),
                                        std::istreambuf_iterator<char>());
  Inputs in;
  if (!deserialize(bytes, in) || in.workload != w) {
    std::cerr << "measure: no inputs for this workload in " << dir << "\n";
    return 2;
  }
  std::map<std::string, double> setup;
  {
    std::ifstream meta(dir + "/setup.txt");
    std::string k;
    double v;
    while (meta >> k >> v) setup[k] = v;
  }
  if (!setup.count("setup_s")) {
    std::cerr << "measure: missing setup.txt\n";
    return 2;
  }

  const Identity id = host_identity();
  const int workers = id.nproc;
#ifdef M_ARENA_MAX
  // glibc gives threads up to 8 x cores malloc arenas. The server starts a
  // thread per session, which spreads freed frames over many arenas, and
  // peak_rss_mb then swung by the regression bound between runs of one
  // build. One arena per core keeps it to the memory the program holds.
  mallopt(M_ARENA_MAX, workers);
#endif
  const Plan plan = plan_for(w);
  SpanLog log(traced);
  Tally tally;
  std::vector<std::string> problems;

  StageOptions opt;
  opt.workers = workers;
  opt.traced = traced;
  DecoderStageRunner rounds(in, opt, log, tally);

  // The serving stage gives the light and the peak rate half its time
  // each. The seg_* latencies pool every slice of a rate but its slowest,
  // and those slices alone hold at least the requests a p95 needs.
  const double serve_s = seconds * (1.0 - plan.decoder_share);
  const auto slice_requests = [&](double rate) {
    const int n = static_cast<int>(std::max(
        std::ceil(static_cast<double>(min_samples_for(0.95)) / (kBlocks - 1)),
        std::ceil(rate * serve_s / 2 / kBlocks)));
    if (plan.period_s <= 0) return n;
    // Whole periods, so no viewer's request is due after the slice ends.
    const int viewers = static_cast<int>(std::lround(rate * plan.period_s));
    return (n + viewers - 1) / viewers * viewers;
  };
  const Phase light_slice{"light", plan.light_rate,
                          slice_requests(plan.light_rate), plan.period_s};
  const Phase peak_slice{"peak", plan.peak_rate,
                         slice_requests(plan.peak_rate), plan.period_s};
  std::vector<Phase> phases;
  for (int b = 0; b < kBlocks; ++b) {
    phases.push_back(b % 2 == 0 ? light_slice : peak_slice);
    phases.push_back(b % 2 == 0 ? peak_slice : light_slice);
  }
  // Each block's peak resident set: inputs, the decoders' working sets
  // and the server's sessions. peak_rss_mb is their median, so that one
  // block whose scheduling happened to hold more frames at once does not
  // set it.
  std::vector<double> block_rss_mb;
  bool rss_reset = true;
  ServeStage srv = run_serve_stage(
      in, phases, plan.warmup_requests, workers, log, tally,
      [&](int p) {
        if (p % 2 != 0) return;
        if (p > 0) block_rss_mb.push_back(peak_rss_mb_now());
        rss_reset = reset_peak_rss() && rss_reset;
        rounds.run_round();
      });
  block_rss_mb.push_back(peak_rss_mb_now());
  const double peak_rss_mb = median(block_rss_mb);
  const DecoderStage& dec = rounds.result();
  const std::vector<ServePhaseStats> slices = srv.phases;
  srv.phases = pool_by_name(slices);
  ProbeResults probes;
  if (traced) probes = run_probes(in, log, tally);

  const std::vector<double> light_ms = latencies_but_slowest(slices, "light");
  const std::vector<double> peak_ms = latencies_but_slowest(slices, "peak");
  // Every rate must support its p95 (at least 10 samples beyond it).
  for (const auto* v : {&light_ms, &peak_ms}) {
    if (!supports_percentile(v->size(), 0.95)) {
      problems.push_back(std::to_string(v->size()) +
                         " pooled requests of a rate cannot support p95");
    }
  }
  for (const auto& r : tally.reasons) problems.push_back(r);

  const ServePhaseStats& light = srv.phases[0];
  const ServePhaseStats& peak = srv.phases[1];
  int timed = 0, on_time = 0;
  for (const auto& ph : srv.phases) {
    timed += ph.attempted;
    on_time += ph.on_time;
  }
  const double miss_ratio = timed > 0 ? 1.0 - static_cast<double>(on_time) / timed : 1.0;

  // Details line: identity plus what the metrics rest on.
  std::ostringstream info;
  info << "{\"identity\": " << id.json() << ", \"workload\": "
       << json_str(workload_name(w)) << ", \"seed\": " << in.seed
       << ", \"workers\": " << workers << ", \"trace\": " << (traced ? 1 : 0)
       << ", \"rounds\": " << dec.mb_per_s[kGop].size()
       << ", \"files\": " << in.files.size()
       << ", \"segments\": " << in.segments.size()
       << ", \"seg_miss_ratio\": " << num(miss_ratio) << ", \"phases\": [";
  for (std::size_t p = 0; p < srv.phases.size(); ++p) {
    const auto& ph = srv.phases[p];
    info << (p ? ", " : "") << "{\"name\": " << json_str(ph.name)
         << ", \"rate_per_s\": " << num(ph.rate_per_s)
         << ", \"seconds\": " << num(ph.seconds)
         << ", \"attempted\": " << ph.attempted
         << ", \"verified\": " << ph.latency_ms.size()
         << ", \"on_time\": " << ph.on_time
         << ", \"utilization\": " << num(ph.utilization)
         << ", \"backlog_mid\": " << ph.backlog_mid
         << ", \"backlog_end\": " << ph.backlog_end
         << ", \"backlog_grew\": " << (ph.backlog_grew() ? "true" : "false")
         << "}";
  }
  info << "], \"slices\": [";
  for (std::size_t p = 0; p < slices.size(); ++p) {
    const auto& sl = slices[p];
    info << (p ? ", " : "") << "{\"name\": " << json_str(sl.name)
         << ", \"verified\": " << sl.latency_ms.size()
         << ", \"p50_ms\": " << num(quantile(sl.latency_ms, 0.50))
         << ", \"p95_ms\": " << num(quantile(sl.latency_ms, 0.95))
         << ", \"backlog_mid\": " << sl.backlog_mid
         << ", \"backlog_end\": " << sl.backlog_end
         << ", \"backlog_grew\": " << (sl.backlog_grew() ? "true" : "false")
         << "}";
  }
  info << "], \"rounds_mb_per_s\": {";
  for (int d = 0; d < kDecoderCount; ++d) {
    info << (d ? ", " : "") << json_str(decoder_name(d)) << ": [";
    const auto& v = dec.mb_per_s[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < v.size(); ++i) info << (i ? ", " : "") << num(v[i]);
    info << "]";
  }
  info << "}, \"block_rss_mb\": [";
  for (std::size_t i = 0; i < block_rss_mb.size(); ++i) {
    info << (i ? ", " : "") << num(block_rss_mb[i]);
  }
  info << "], \"rss_reset\": " << (rss_reset ? "true" : "false")
       << ", \"gen_lag_ms_max\": " << num(srv.gen_lag_max_ms)
       << ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    info << (i ? ", " : "") << json_str(problems[i]);
  }
  info << "]}";
  std::cout << info.str() << "\n";

  Metrics m;
  if (!traced) {
    m.push_back({"setup_s", {setup["setup_s"], "s"}});
    m.push_back({"peak_rss_mb", {peak_rss_mb, "MB"}});
    for (int d = 0; d < kDecoderCount; ++d) {
      m.push_back({std::string(decoder_name(d)) + "_mb_per_s",
                   {dec.best_mb_per_s(d), "macroblock/s"}});
    }
    m.push_back({"seg_p50_ms", {quantile(light_ms, 0.50), "ms"}});
    m.push_back({"seg_p95_ms", {quantile(light_ms, 0.95), "ms"}});
    m.push_back({"seg_p50_ms_peak", {quantile(peak_ms, 0.50), "ms"}});
  } else {
    const double seq_s_per_mb = ratio(dec.seq_total_s, static_cast<double>(dec.seq_macroblocks));
    const double kernel_ns =
        probes.idct_ns_per_block * static_cast<double>(dec.seq_coded_blocks) +
        probes.mc_ns_per_mb * static_cast<double>(dec.seq_mc_blocks) / 6.0;
    m.push_back({"streamgen.encode_s_per_picture", {setup["encode_s_per_picture"], "s"}});
    m.push_back({"bitstream.startcode_scan_gb_per_s", {probes.startcode_scan_gb_per_s, "GB/s"}});
    m.push_back({"mpeg2.scan_structure_us_per_gop", {probes.scan_structure_us_per_gop, "us"}});
    m.push_back({"mpeg2.picture_ns_per_mb.I", {probes.picture_ns_per_mb[0], "ns"}});
    m.push_back({"mpeg2.picture_ns_per_mb.P", {probes.picture_ns_per_mb[1], "ns"}});
    m.push_back({"mpeg2.picture_ns_per_mb.B", {probes.picture_ns_per_mb[2], "ns"}});
    m.push_back({"mpeg2.kernels.idct_ns_per_block", {probes.idct_ns_per_block, "ns"}});
    m.push_back({"mpeg2.kernels.mc_ns_per_mb", {probes.mc_ns_per_mb, "ns"}});
    m.push_back({"mpeg2.non_kernel_share",
                 {1.0 - ratio(kernel_ns, dec.seq_total_s * 1e9), "ratio"}});
    m.push_back({"mpeg2.seq_ns_per_mb", {seq_s_per_mb * 1e9, "ns"}});
    m.push_back({"mpeg2.bits_per_mb",
                 {ratio(static_cast<double>(dec.seq_bits), static_cast<double>(dec.seq_macroblocks)), "bits"}});
    for (const int d : {kGop, kSlice, kAdaptive}) {
      const LoadStats& ls = dec.load[static_cast<std::size_t>(d)];
      const std::string p = std::string("parallel.") + decoder_name(d) + ".";
      m.push_back({p + "utilization", {median(ls.utilization), "ratio"}});
      m.push_back({p + "sync_ratio", {median(ls.sync_ratio), "ratio"}});
      m.push_back({p + "imbalance", {median(ls.imbalance), "ratio"}});
      m.push_back({p + "scan_s", {median(ls.scan_s), "s"}});
      m.push_back({p + "peak_frame_mb", {ls.peak_frame_mb, "MB"}});
    }
    m.push_back({"parallel.gop.one_worker_ratio", {probes.gop_one_worker_ratio, "ratio"}});
    m.push_back({"parallel.adaptive.one_worker_ratio", {probes.adaptive_one_worker_ratio, "ratio"}});
    const LoadStats& ad = dec.load[kAdaptive];
    m.push_back({"parallel.adaptive.exploded_share",
                 {ratio(static_cast<double>(ad.exploded_gops),
                        static_cast<double>(ad.exploded_gops + ad.gop_mode_gops)), "ratio"}});
    m.push_back({"parallel.adaptive.stolen_tasks",
                 {ratio(static_cast<double>(ad.stolen_tasks),
                        static_cast<double>(ad.utilization.size())), "count"}});
    m.push_back({"parallel.adaptive.pool_hit_ratio",
                 {ratio(static_cast<double>(ad.pool_hits),
                        static_cast<double>(ad.pool_hits + ad.pool_misses)), "ratio"}});
    m.push_back({"serve.submit_us", {median(srv.submit_us), "us"}});
    m.push_back({"serve.queued_ms.p50", {median(srv.queued_ms), "ms"}});
    m.push_back({"serve.frame_latency_ms.p50", {srv.frame_latency_p50_ms, "ms"}});
    m.push_back({"serve.frame_latency_ms.p99", {srv.frame_latency_p99_ms, "ms"}});
    m.push_back({"serve.exploded_share",
                 {ratio(static_cast<double>(srv.exploded_gops),
                        static_cast<double>(srv.exploded_gops + srv.gop_mode_gops)), "ratio"}});
    m.push_back({"serve.pool_hit_ratio",
                 {ratio(static_cast<double>(srv.pool_hits),
                        static_cast<double>(srv.pool_hits + srv.pool_misses)), "ratio"}});
    m.push_back({"serve.utilization", {peak.utilization, "ratio"}});
    m.push_back({"serve.utilization.light", {light.utilization, "ratio"}});
    m.push_back({"serve.sync_ratio", {peak.sync_ratio, "ratio"}});
    m.push_back({"serve.rejected", {static_cast<double>(srv.rejected), "count"}});
    m.push_back({"serve.failed", {static_cast<double>(srv.failed), "count"}});
    m.push_back({"serve.seg_miss_ratio", {miss_ratio, "ratio"}});
    m.push_back({"serve.seg_p95_ms_peak", {quantile(peak_ms, 0.95), "ms"}});
    m.push_back({"serve.gen_lag_ms.max", {srv.gen_lag_max_ms, "ms"}});
    m.push_back({"serve.backlog_end", {static_cast<double>(peak.backlog_end), "count"}});
    // Each traced round against the untraced round after it, so that the
    // host's drift cancels within a pair.
    std::vector<double> pairs;
    for (std::size_t k = 0; k < std::min(dec.traced_round_s.size(),
                                         dec.untraced_round_s.size()); ++k) {
      pairs.push_back(ratio(dec.traced_round_s[k], dec.untraced_round_s[k]));
    }
    m.push_back({"obs.bench_trace_overhead", {median(pairs) - 1.0, "ratio"}});
    if (f.count("spans-out") && !log.write_json(f.at("spans-out"))) {
      problems.push_back("could not write spans");
    }
  }

  const bool correct = problems.empty() && tally.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics_json(m) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_run setup|measure --flag value ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = perfbench::parse_flags(argc, argv, 2);
  if (cmd == "setup") return perfbench::cmd_setup(flags);
  if (cmd == "measure") return perfbench::cmd_measure(flags);
  std::cerr << "unknown command " << cmd << "\n";
  return 2;
}
