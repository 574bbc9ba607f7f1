#include "pb/stages.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>

#include "bitstream/startcode.h"
#include "mpeg2/decoder.h"
#include "mpeg2/kernels/kernels.h"
#include "obs/metrics.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/gop_decoder.h"
#include "parallel/gop_work.h"
#include "parallel/slice_parallel.h"
#include "pb/stats.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using pmp2::parallel::RunResult;
using pmp2::serve::DecodeServer;
using pmp2::serve::SessionResult;
using pmp2::serve::SessionState;

constexpr double kPicturesPerSecond = 30.0;  // every stream's frame rate
constexpr double kHangSeconds = 30.0;  // a served request older is hung

std::string describe(const Stream& s) {
  return std::to_string(s.width) + "x" + std::to_string(s.height) + "/" +
         std::to_string(s.pictures) + "pics";
}

bool check_run(Tally& tally, const char* who, const Stream& s,
               const RunResult& r) {
  const bool good = r.ok && !r.hung && !r.degraded() &&
                    r.pictures == s.pictures &&
                    r.checksum == s.reference_checksum;
  tally.check(good, std::string(who) + " " + describe(s) +
                        (r.hung ? " hung" : r.ok ? " checksum/picture mismatch"
                                                 : " ok=0"));
  return good;
}

bool check_session(Tally& tally, const char* who, const Stream& s,
                   const SessionResult& r) {
  std::string why;
  if (r.state != SessionState::kFinished) {
    why = std::string(pmp2::serve::session_state_name(r.state));
  } else if (!r.ok || r.hung) {
    why = r.hung ? "hung" : "ok=0";
  } else if (r.checksum != s.reference_checksum ||
             r.pictures_delivered != s.pictures) {
    why = "checksum/picture mismatch";
  } else if (r.pool_idle != r.pool_misses) {
    why = "frame pool leak";
  } else if (r.concealed_slices > 0 || r.concealed_pictures > 0) {
    why = "concealment on a clean stream";
  }
  tally.check(why.empty(), std::string(who) + " " + describe(s) + " " + why);
  return why.empty();
}

void add_load(LoadStats& ls, const RunResult& r) {
  const auto sum = pmp2::parallel::summarize_load(r);
  ls.utilization.push_back(sum.utilization);
  ls.sync_ratio.push_back(sum.sync_ratio);
  ls.imbalance.push_back(sum.imbalance);
  ls.peak_frame_mb = std::max(ls.peak_frame_mb, r.peak_frame_bytes / 1e6);
  ls.exploded_gops += static_cast<std::uint64_t>(r.exploded_gops);
  ls.gop_mode_gops += static_cast<std::uint64_t>(r.gop_mode_gops);
  ls.stolen_tasks += r.stolen_tasks;
  ls.pool_hits += r.pool_hits;
  ls.pool_misses += r.pool_misses;
}

}  // namespace

const char* decoder_name(int d) {
  static constexpr const char* kNames[kDecoderCount] = {
      "seq", "gop", "slice", "adaptive", "server1"};
  return kNames[d];
}

void Tally::check(bool good, const std::string& why) {
  ++attempted;
  if (good) return;
  ++failed;
  if (reasons.size() < 8) reasons.push_back(why);
}

bool ServePhaseStats::backlog_grew() const {
  // Open-loop validity: sessions outstanding at the end of the phase
  // exceed twice the mid-phase count and the pool's depth.
  return backlog_end > 2 * std::max(backlog_mid, 4);
}

std::vector<ServePhaseStats> pool_by_name(
    const std::vector<ServePhaseStats>& slices) {
  std::vector<ServePhaseStats> out;
  for (const ServePhaseStats& s : slices) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const ServePhaseStats& o) { return o.name == s.name; });
    if (it == out.end()) {
      out.push_back(s);
      continue;
    }
    const double t = it->seconds + s.seconds;
    it->utilization = (it->utilization * it->seconds + s.utilization * s.seconds) / t;
    it->sync_ratio = (it->sync_ratio * it->seconds + s.sync_ratio * s.seconds) / t;
    it->seconds = t;
    it->attempted += s.attempted;
    it->on_time += s.on_time;
    it->latency_ms.insert(it->latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    it->backlog_mid = std::max(it->backlog_mid, s.backlog_mid);
    it->backlog_end = s.backlog_end;
  }
  return out;
}

std::vector<double> latencies_but_slowest(
    const std::vector<ServePhaseStats>& slices, const std::string& name) {
  std::vector<const ServePhaseStats*> mine;
  for (const ServePhaseStats& s : slices) {
    if (s.name == name) mine.push_back(&s);
  }
  const auto mean = [](const ServePhaseStats* s) {
    double sum = 0.0;
    for (const double v : s->latency_ms) sum += v;
    return s->latency_ms.empty() ? 0.0 : sum / static_cast<double>(s->latency_ms.size());
  };
  const auto slowest = std::max_element(
      mine.begin(), mine.end(),
      [&](const auto* a, const auto* b) { return mean(a) < mean(b); });
  std::vector<double> out;
  for (auto it = mine.begin(); it != mine.end(); ++it) {
    if (it == slowest && mine.size() > 1) continue;
    out.insert(out.end(), (*it)->latency_ms.begin(), (*it)->latency_ms.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Decoder stage

double DecoderStage::best_mb_per_s(int d) const {
  double s = 0.0;
  for (const double t : best_file_s[static_cast<std::size_t>(d)]) s += t;
  return s > 0 ? static_cast<double>(macroblocks) / s : 0.0;
}

struct DecoderStageRunner::Impl {
  const Inputs& in;
  const StageOptions opt;
  SpanLog& log;
  SpanLog off{false};
  Tally& tally;
  DecoderStage out;
  DecodeServer server;
  // One tracker per decoder: peak_frame_mb is each decoder's own peak.
  std::array<pmp2::mpeg2::MemoryTracker, kDecoderCount> trackers;
  int rounds = 0;

  Impl(const Inputs& i, const StageOptions& o, SpanLog& l, Tally& t)
      : in(i), opt(o), log(l), tally(t), server([&] {
          pmp2::serve::ServerConfig c;
          c.workers = o.workers;
          return c;
        }()) {}

  // Decodes every file with decoder `d`, appending each decode's wall
  // time to `file_s`; returns the scan seconds summed. A traced call
  // (spans on) also tracks the parallel decoders' frames.
  double decode_all(int d, SpanLog& log, int parent, bool record,
                    std::vector<double>& file_s) {
    double scan_s = 0.0;
    LoadStats& ls = out.load[static_cast<std::size_t>(d)];
    pmp2::mpeg2::MemoryTracker* trk =
        log.enabled() ? &trackers[static_cast<std::size_t>(d)] : nullptr;
    for (const Stream& s : in.files) {
      Scope span(log, "decode.file", parent);
      span.set_items(s.macroblocks());
      const pmp2::WallTimer t;
      switch (d) {
        case kSeq: {
          pmp2::mpeg2::Decoder dec;
          std::uint64_t digest = 0;
          int frames = 0;
          const auto st = dec.decode_stream(
              s.bytes, [&](pmp2::mpeg2::FramePtr f) {
                digest = pmp2::parallel::chain_frame_checksum(digest, *f);
                ++frames;
              });
          tally.check(st.ok && frames == s.pictures &&
                          digest == s.reference_checksum,
                      "seq " + describe(s) + " mismatch");
          if (record) {
            out.seq_macroblocks += st.work.macroblocks;
            out.seq_bits += st.work.bits;
            out.seq_coded_blocks += st.work.coded_blocks;
            out.seq_mc_blocks += st.work.mc_blocks;
          }
          break;
        }
        case kGop: {
          pmp2::parallel::GopDecoderConfig c;
          c.workers = opt.workers;
          c.tracker = trk;
          const RunResult r = pmp2::parallel::GopParallelDecoder(c).decode(s.bytes);
          check_run(tally, "gop", s, r);
          if (record) add_load(ls, r);
          scan_s += r.scan_s;
          break;
        }
        case kSlice: {
          pmp2::parallel::SliceDecoderConfig c;
          c.workers = opt.workers;
          c.policy = pmp2::parallel::SlicePolicy::kImproved;
          c.tracker = trk;
          const RunResult r = pmp2::parallel::SliceParallelDecoder(c).decode(s.bytes);
          check_run(tally, "slice", s, r);
          if (record) add_load(ls, r);
          scan_s += r.scan_s;
          break;
        }
        case kAdaptive: {
          pmp2::parallel::AdaptiveDecoderConfig c;
          c.workers = opt.workers;
          c.tracker = trk;
          const RunResult r = pmp2::parallel::AdaptiveDecoder(c).decode(s.bytes);
          check_run(tally, "adaptive", s, r);
          if (record) add_load(ls, r);
          scan_s += r.scan_s;
          break;
        }
        case kServer1: {
          int sub = log.begin("serve.submit", span.id());
          const auto id = server.submit(s.bytes, {});
          log.end(sub);
          sub = log.begin("serve.wait", span.id());
          const SessionResult r = server.wait(id);
          log.end(sub);
          sub = log.begin("serve.forget", span.id());
          server.forget(id);
          log.end(sub);
          check_session(tally, "server1", s, r);
          break;
        }
        default:
          break;
      }
      file_s.push_back(t.elapsed_s());
    }
    return scan_s;
  }

  // One round: every decoder decodes every file. The sequential decoder,
  // on one core, swings most with what shares that core; it runs before
  // the first and the third parallel decoder, which rotate by round.
  void round(bool traced) {
    SpanLog& rlog = traced ? log : off;
    const Scope round_span(rlog, "round");
    double round_s = 0.0;
    for (int k = 0; k < 6; ++k) {
      const int d = k % 3 == 0 ? kSeq
                               : 1 + (k - 1 - k / 3 + rounds) % (kDecoderCount - 1);
      const Scope dspan(rlog, decoder_name(d), round_span.id());
      std::vector<double> file_s;
      const double scan_s = decode_all(d, rlog, dspan.id(), true, file_s);
      double s = 0.0;
      auto& best = out.best_file_s[static_cast<std::size_t>(d)];
      for (std::size_t i = 0; i < file_s.size(); ++i) {
        s += file_s[i];
        best[i] = std::min(best[i], file_s[i]);
      }
      round_s += s;
      out.mb_per_s[static_cast<std::size_t>(d)].push_back(
          static_cast<double>(out.macroblocks) / s);
      out.load[static_cast<std::size_t>(d)].scan_s.push_back(scan_s);
      if (d == kSeq) out.seq_total_s += s;
    }
    ++rounds;
    if (opt.traced) {
      (traced ? out.traced_round_s : out.untraced_round_s).push_back(round_s);
    }
  }
};

DecoderStageRunner::DecoderStageRunner(const Inputs& in,
                                       const StageOptions& opt, SpanLog& log,
                                       Tally& tally)
    : impl_(std::make_unique<Impl>(in, opt, log, tally)) {
  DecoderStage& out = impl_->out;
  for (const Stream& s : in.files) out.macroblocks += s.macroblocks();
  for (auto& best : out.best_file_s) best.assign(in.files.size(), 1e30);
  // Untimed warm-up: one decode of every file per decoder (first runs
  // pay page faults, allocator growth and thread start-up).
  for (int d = 0; d < kDecoderCount; ++d) {
    const Scope span(log, "warmup");
    std::vector<double> unused;
    impl_->decode_all(d, impl_->off, -1, false, unused);
  }
}

DecoderStageRunner::~DecoderStageRunner() = default;

void DecoderStageRunner::run_round() {
  // A traced run pairs a traced round with an untraced one; their time
  // difference is the tracing overhead.
  if (impl_->opt.traced) impl_->round(true);
  impl_->round(false);
}

const DecoderStage& DecoderStageRunner::result() const { return impl_->out; }

// ---------------------------------------------------------------------------
// Serving stage

ServeStage run_serve_stage(const Inputs& in, const std::vector<Phase>& phases,
                           int warmup_requests, int workers, SpanLog& log,
                           Tally& tally,
                           const std::function<void(int)>& before_phase) {
  ServeStage out;
  for (const Phase& p : phases) {
    ServePhaseStats st;
    st.name = p.name;
    st.rate_per_s = p.rate_per_s;
    out.phases.push_back(st);
  }
  const std::vector<Arrival> schedule =
      make_schedule(in.seed, phases, warmup_requests, in.segment_weights);

  pmp2::serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.admission.max_queued = 1 << 20;  // over capacity waits, never rejects
  DecodeServer server(cfg);

  // One waiter thread per request blocks in wait() and stamps the request
  // when it returns, so the harness spends no CPU while sessions run.
  struct Request {
    pmp2::serve::SessionId id;
    int index;
    std::int64_t due_ns;
    bool done = false;  // guarded by mu
    bool hung = false;  // guarded by mu
  };
  std::mutex mu;
  std::condition_variable changed;
  int outstanding = 0;              // guarded by mu
  std::vector<std::size_t> ended;   // waiters to join, guarded by mu
  pmp2::obs::HistogramSnapshot frame_latency;  // guarded by mu
  std::deque<Request> requests;     // generator thread only (stable refs)
  std::deque<std::jthread> waiters;  // joined before the server dies

  const auto finish = [&](Request& q, std::size_t slot) {
    const int wait_span = log.begin("serve.wait", -1, q.index);
    const SessionResult r = server.wait(q.id);
    const std::int64_t now = log.now_ns();
    log.end(wait_span);
    const int forget_span = log.begin("serve.forget", -1, q.index);
    server.forget(q.id);
    log.end(forget_span);
    log.record("serve.request", q.due_ns, now, -1, q.index, 1);
    const Arrival& a = schedule[static_cast<std::size_t>(q.index)];
    const Stream& seg = in.segments[static_cast<std::size_t>(a.segment)];
    const std::scoped_lock lock(mu);
    bool good = false;
    if (q.hung) {
      tally.check(false, "served " + describe(seg) + " hung");
    } else {
      good = check_session(tally, "served", seg, r);
    }
    if (a.phase >= 0) {
      ServePhaseStats& ph = out.phases[static_cast<std::size_t>(a.phase)];
      const double ms = static_cast<double>(now - q.due_ns) / 1e6;
      if (r.state == SessionState::kRejected) ++out.rejected;
      if (!good) ++out.failed;
      if (good) {
        ph.latency_ms.push_back(ms);
        if (ms <= seg.pictures * 1e3 / kPicturesPerSecond) ++ph.on_time;
        out.queued_ms.push_back(r.queued_s * 1e3);
        frame_latency.add(r.latency);
        out.exploded_gops += static_cast<std::uint64_t>(r.exploded_gops);
        out.gop_mode_gops += static_cast<std::uint64_t>(r.gop_mode_gops);
        out.pool_hits += r.pool_hits;
        out.pool_misses += r.pool_misses;
      }
    }
    q.done = true;
    --outstanding;
    ended.push_back(slot);
    changed.notify_all();
  };
  const auto join_ended = [&] {
    std::vector<std::size_t> slots;
    {
      const std::scoped_lock lock(mu);
      slots.swap(ended);
    }
    for (const std::size_t k : slots) waiters[k].join();
  };
  const auto backlog = [&] {
    const std::scoped_lock lock(mu);
    return outstanding;
  };
  // Waits until no request is outstanding or `deadline_ns` has passed;
  // returns whether none is.
  const auto drain_until = [&](std::int64_t deadline_ns) {
    std::unique_lock lock(mu);
    while (outstanding > 0) {
      const std::int64_t left = deadline_ns - log.now_ns();
      if (left <= 0) return false;
      changed.wait_for(lock, std::chrono::nanoseconds(left));
    }
    return true;
  };
  // Cancels every outstanding request and counts it as hung; their waiters
  // then return.
  const auto cancel_outstanding = [&] {
    std::vector<pmp2::serve::SessionId> ids;
    {
      const std::scoped_lock lock(mu);
      for (Request& q : requests) {
        if (q.done) continue;
        q.hung = true;
        ids.push_back(q.id);
      }
    }
    for (const auto id : ids) server.cancel(id);
  };
  const auto sleep_until_ns = [&](std::int64_t t_ns) {
    const std::int64_t left = t_ns - log.now_ns();
    if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  };
  const auto pool_totals = [&] {
    const auto s = server.load_summary();
    return std::pair{s.total_busy_ns, s.total_sync_ns};
  };
  const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  // Waits until every request so far has ended; one still running
  // kHangSeconds from now is hung.
  const auto drain = [&] {
    if (!drain_until(log.now_ns() + ns(kHangSeconds))) cancel_outstanding();
    drain_until(INT64_MAX);
    join_ended();
  };
  const auto submit = [&](std::size_t i, std::int64_t due) {
    join_ended();
    sleep_until_ns(due);
    const Arrival& a = schedule[i];
    const std::int64_t t0 = log.now_ns();
    if (a.phase >= 0) {
      out.phases[static_cast<std::size_t>(a.phase)].attempted++;
      out.gen_lag_max_ms = std::max(out.gen_lag_max_ms, static_cast<double>(t0 - due) / 1e6);
    }
    const Stream& seg = in.segments[static_cast<std::size_t>(a.segment)];
    pmp2::serve::SessionConfig sc;
    sc.name = "r" + std::to_string(i);
    const auto id = server.submit(seg.bytes, std::move(sc));
    const std::int64_t t1 = log.now_ns();
    log.record("serve.submit", t0, t1, -1, static_cast<int>(i), 1);
    if (a.phase >= 0) out.submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    {
      const std::scoped_lock lock(mu);
      requests.push_back({id, static_cast<int>(i), due});
      ++outstanding;
    }
    waiters.emplace_back(finish, std::ref(requests.back()), waiters.size());
  };

  // Generator (this thread): the untimed warm-up, then each phase from an
  // idle server. The backlog is sampled in the middle and at the end of a
  // phase, the pool's busy/sync totals at its start and end.
  const auto generate = [&] {
    std::size_t i = 0;
    const std::int64_t warm_base = log.now_ns();
    for (; i < schedule.size() && schedule[i].phase < 0; ++i) {
      submit(i, warm_base + ns(schedule[i].due_s));
    }
    double phase_start_s = 0.0;  // in the schedule's timed clock
    for (std::size_t p = 0; p < phases.size(); ++p) {
      drain();
      before_phase(static_cast<int>(p));
      ServePhaseStats& ph = out.phases[p];
      ph.seconds = phases[p].requests / phases[p].rate_per_s;
      const std::int64_t base = log.now_ns();
      const std::int64_t mid = base + ns(ph.seconds / 2);
      const auto [busy0, sync0] = pool_totals();
      bool mid_sampled = false;
      const auto sample_mid = [&] {
        sleep_until_ns(mid);
        ph.backlog_mid = backlog();
        mid_sampled = true;
      };
      for (; i < schedule.size() && schedule[i].phase == static_cast<int>(p); ++i) {
        const std::int64_t due = base + ns(schedule[i].due_s - phase_start_s);
        if (!mid_sampled && due >= mid) sample_mid();
        submit(i, due);
      }
      if (!mid_sampled) sample_mid();
      sleep_until_ns(base + ns(ph.seconds));
      ph.backlog_end = backlog();
      const auto [busy1, sync1] = pool_totals();
      const auto busy = static_cast<double>(busy1 - busy0);
      const auto sync = static_cast<double>(sync1 - sync0);
      ph.utilization = busy / (static_cast<double>(log.now_ns() - base) * workers);
      ph.sync_ratio = busy + sync > 0 ? sync / (busy + sync) : 0.0;
      phase_start_s += ph.seconds;
    }
    drain();
  };
  try {
    generate();
  } catch (...) {
    cancel_outstanding();
    throw;  // the waiters are joined on the way out, before the server dies
  }
  out.frame_latency_p50_ms = frame_latency.percentile(0.50) / 1e6;
  out.frame_latency_p99_ms = frame_latency.percentile(0.99) / 1e6;
  return out;
}

// ---------------------------------------------------------------------------
// Probes (traced run)

namespace {

// Repeats `fn` until `min_s` seconds have passed (at least once); returns
// the calls made and records one span per call.
template <typename Fn>
std::int64_t repeat_for(SpanLog& log, const char* name, double min_s,
                        std::int64_t items, Fn&& fn) {
  const pmp2::WallTimer t;
  std::int64_t calls = 0;
  do {
    const int id = log.begin(name);
    fn();
    log.end(id, items);
    ++calls;
  } while (t.elapsed_s() < min_s);
  return calls;
}

double ns_per_item(const SpanLog& log, const std::string& name) {
  const auto t = log.totals(name);
  return t.items > 0 ? static_cast<double>(t.ns) / static_cast<double>(t.items) : 0.0;
}

void probe_pictures(const Inputs& in, SpanLog& log, Tally& tally) {
  static constexpr const char* kNames[3] = {"mpeg2.decode_one_picture.I",
                                            "mpeg2.decode_one_picture.P",
                                            "mpeg2.decode_one_picture.B"};
  for (const Stream& s : in.files) {
    const auto structure = pmp2::mpeg2::scan_structure(s.bytes);
    pmp2::mpeg2::FramePool pool(s.width, s.height);
    pmp2::parallel::DisplaySink sink(structure.total_pictures(), {});
    pmp2::parallel::WorkerStats ws;
    const pmp2::parallel::GopObs gobs{};
    int decode_base = 0;
    bool good = structure.valid;
    for (int g = 0; good && g < static_cast<int>(structure.gops.size()); ++g) {
      const auto& gop = structure.gops[static_cast<std::size_t>(g)];
      const int gop_base = decode_base;  // closed GOPs: display base too
      pmp2::mpeg2::FramePtr fwd, bwd;
      for (const auto& info : gop.pictures) {
        const int type = static_cast<int>(info.type) - 1;  // I=1, P=2, B=3
        const int id = log.begin(kNames[std::clamp(type, 0, 2)]);
        auto outcome = pmp2::parallel::decode_one_picture(
            s.bytes, structure, info, g, decode_base, gop_base, -1, fwd,
            bwd, pool, sink, ws, gobs, 0);
        log.end(id, structure.mb_width() * structure.mb_height());
        ++decode_base;
        if (!outcome.frame) {
          good = false;
          break;
        }
        if (outcome.frame->type != pmp2::mpeg2::PictureType::kB) {
          fwd = bwd;
          bwd = std::move(outcome.frame);
        }
      }
    }
    tally.check(good && sink.checksum() == s.reference_checksum,
                "decode_one_picture " + describe(s) + " mismatch");
    if (decode_base >= 260) break;  // enough pictures of every type
  }
}

void probe_kernels(SpanLog& log, ProbeResults& out) {
  const auto& k = pmp2::mpeg2::kernels::active();
  pmp2::Rng rng(0x1DC7);
  // IDCT: blocks shaped like dequantized data (a DC term and a few low-
  // frequency AC terms), with the sparsity the VLC stage would record.
  constexpr int kBlocks = 256;
  std::vector<pmp2::mpeg2::Block> pristine(kBlocks), work(kBlocks);
  std::vector<pmp2::mpeg2::BlockSparsity> sparsity(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    auto& blk = pristine[static_cast<std::size_t>(b)];
    blk.fill(0);
    auto& sp = sparsity[static_cast<std::size_t>(b)];
    sp = pmp2::mpeg2::BlockSparsity::none();
    blk[0] = static_cast<std::int16_t>(rng.next_in(-512, 512));
    sp.mark(0);
    const int ac = rng.next_in(0, 10);
    for (int i = 0; i < ac; ++i) {
      const int pos = rng.next_in(0, 3) * 8 + rng.next_in(0, 3);
      blk[static_cast<std::size_t>(pos)] = static_cast<std::int16_t>(rng.next_in(-64, 64));
      sp.mark(pos);
    }
  }
  const pmp2::WallTimer t;
  while (t.elapsed_s() < 0.1) {
    work = pristine;
    const int id = log.begin("mpeg2.kernels.idct");
    for (int b = 0; b < kBlocks; ++b) {
      k.idct(work[static_cast<std::size_t>(b)], sparsity[static_cast<std::size_t>(b)]);
    }
    log.end(id, kBlocks);
  }
  out.idct_ns_per_block = ns_per_item(log, "mpeg2.kernels.idct");

  // MC: one macroblock's prediction (16x16 luma + two 8x8 chroma) from a
  // 704x480 reference at random positions and half-pel phases.
  constexpr int kW = 704 + 32, kH = 480 + 32, kMbs = 1024;
  std::vector<std::uint8_t> ref_y(static_cast<std::size_t>(kW * kH)),
      ref_c(static_cast<std::size_t>(kW * kH / 4));
  for (auto& p : ref_y) p = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& p : ref_c) p = static_cast<std::uint8_t>(rng.next_below(256));
  struct Op {
    int y_off, c_off;
    bool hx, hy, avg;
  };
  std::vector<Op> ops(kMbs);
  for (auto& op : ops) {
    const int x = rng.next_in(0, 704 - 1), y = rng.next_in(0, 480 - 1);
    op = {y * kW + x, (y / 2) * (kW / 2) + x / 2, rng.next_below(2) != 0,
          rng.next_below(2) != 0, rng.next_below(2) != 0};
  }
  alignas(32) std::uint8_t dst_y[16 * 16], dst_cb[8 * 8], dst_cr[8 * 8];
  std::memset(dst_y, 0, sizeof dst_y);
  std::memset(dst_cb, 0, sizeof dst_cb);
  std::memset(dst_cr, 0, sizeof dst_cr);
  const pmp2::WallTimer tm;
  while (tm.elapsed_s() < 0.1) {
    const int id = log.begin("mpeg2.kernels.mc");
    for (const Op& op : ops) {
      k.mc(ref_y.data() + op.y_off, kW, dst_y, 16, 16, 16, op.hx, op.hy, op.avg);
      k.mc(ref_c.data() + op.c_off, kW / 2, dst_cb, 8, 8, 8, op.hx, op.hy, op.avg);
      k.mc(ref_c.data() + op.c_off, kW / 2, dst_cr, 8, 8, 8, op.hx, op.hy, op.avg);
    }
    log.end(id, kMbs);
  }
  out.mc_ns_per_mb = ns_per_item(log, "mpeg2.kernels.mc");
}

}  // namespace

ProbeResults run_probes(const Inputs& in, SpanLog& log, Tally& tally) {
  ProbeResults out;
  std::int64_t bytes = 0, gops = 0;
  for (const Stream& s : in.files) {
    bytes += static_cast<std::int64_t>(s.bytes.size());
    gops += s.gops;
  }
  repeat_for(log, "bitstream.scan_all_startcodes", 0.1, bytes, [&] {
    for (const Stream& s : in.files) {
      const auto codes = pmp2::scan_all_startcodes(s.bytes);
      tally.check(!codes.empty(), "scan_all_startcodes found nothing");
    }
  });
  repeat_for(log, "mpeg2.scan_structure", 0.1, gops, [&] {
    for (const Stream& s : in.files) {
      const auto st = pmp2::mpeg2::scan_structure(s.bytes);
      tally.check(st.valid && static_cast<int>(st.gops.size()) == s.gops,
                  "scan_structure GOP count mismatch on " + describe(s));
    }
  });
  out.startcode_scan_gb_per_s =
      1.0 / ns_per_item(log, "bitstream.scan_all_startcodes");
  out.scan_structure_us_per_gop = ns_per_item(log, "mpeg2.scan_structure") / 1e3;

  probe_pictures(in, log, tally);
  out.picture_ns_per_mb = {ns_per_item(log, "mpeg2.decode_one_picture.I"),
                           ns_per_item(log, "mpeg2.decode_one_picture.P"),
                           ns_per_item(log, "mpeg2.decode_one_picture.B")};
  probe_kernels(log, out);

  // One-worker overhead: each parallel decoder at one worker against the
  // sequential decoder, best of two interleaved passes over the files.
  std::array<double, 3> best_s{1e30, 1e30, 1e30};  // seq, gop, adaptive
  for (int pass = 0; pass < 2; ++pass) {
    for (int which = 0; which < 3; ++which) {
      static constexpr const char* kNames[3] = {
          "probe.one_worker.seq", "probe.one_worker.gop",
          "probe.one_worker.adaptive"};
      const Scope span(log, kNames[which]);
      const pmp2::WallTimer t;
      for (const Stream& s : in.files) {
        if (which == 0) {
          pmp2::mpeg2::Decoder dec;
          const auto st =
              dec.decode_stream(s.bytes, [](pmp2::mpeg2::FramePtr) {});
          tally.check(st.ok, "one-worker seq " + describe(s) + " ok=0");
        } else if (which == 1) {
          pmp2::parallel::GopDecoderConfig c;
          c.workers = 1;
          check_run(tally, "gop@1", s, pmp2::parallel::GopParallelDecoder(c).decode(s.bytes));
        } else {
          pmp2::parallel::AdaptiveDecoderConfig c;
          c.workers = 1;
          check_run(tally, "adaptive@1", s, pmp2::parallel::AdaptiveDecoder(c).decode(s.bytes));
        }
      }
      best_s[static_cast<std::size_t>(which)] =
          std::min(best_s[static_cast<std::size_t>(which)], t.elapsed_s());
    }
  }
  out.gop_one_worker_ratio = best_s[0] / best_s[1];
  out.adaptive_one_worker_ratio = best_s[0] / best_s[2];
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::scoped_lock lock(mutex_);
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request
      << ",\"items\":" << s.items << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
