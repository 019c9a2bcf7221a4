// perfbench_driver — times one benchmark workload from outside the
// simulator, through its public API only.
//
//   perfbench_driver --workload bulk_san|kv_rpc|fleet_chaos --seed N
//                    --size N --mode timed|traced|once [--seconds S]
//                    [--out DIR]
//
// `--size` is GiB for bulk_san, GiB per pair and chaos plan for
// fleet_chaos and ops per pair for kv_rpc. Modes:
//   timed   repeats the workload until --seconds of measured phase have
//           elapsed (at least 3 repeats) with the CLI's Release defaults
//           (stats on, audit off, event-exact) and reports every repeat;
//   traced  runs untraced repeats for --seconds, then one run with the
//           program's tracer (where the scenario has one) and auditor on,
//           and writes the stats and trace dumps plus the driver's own
//           spans to --out;
//   once    runs the workload once, for the peak RSS of one repeat and for
//           the count_allocs interposer.
// Prints one JSON object on stdout; run.py turns it into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "check/audit.hpp"
#include "exp/exp.hpp"
#include "exp/fleet.hpp"
#include "exp/kv_scenario.hpp"
#include "metrics/metrics.hpp"
#include "rftp/rftp.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

using namespace e2e;

namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// User+sys CPU of the whole process (every thread), in seconds.
double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// A numeric field of /proc/self/status ("Threads:", "VmHWM:"), or -1.
long proc_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      long v = 0;
      in >> v;
      return v;
    }
    in.ignore(1 << 12, '\n');
  }
  return -1;
}

/// Peak resident memory of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which carries over the high-water mark of the
/// parent image across exec.
double peak_rss_mib() {
  return static_cast<double>(proc_status("VmHWM:")) / 1024.0;
}

// --- the driver's own spans ----------------------------------------------
// One span per call into a layer's public API: name, start, end (steady
// clock, seconds) and parent span index (-1 for a root). Kept in memory,
// written once at exit.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Spans {
 public:
  int open(std::string name) {
    spans_.push_back({std::move(name), now_s(), 0.0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Closes span `id` and returns its duration in seconds.
  double close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  void write(std::ostream& os) const {
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                    "\"end\": %.9f, \"parent\": %d}",
                    i ? "," : "", i, s.name.c_str(), s.start, s.end, s.parent);
      os << buf;
    }
    os << "\n]\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Spans g_spans;

/// Times `fn()` as one span named `name`; returns its duration.
template <typename Fn>
double timed_call(const char* name, Fn&& fn) {
  const int id = g_spans.open(name);
  fn();
  return g_spans.close(id);
}

// --- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::string mode = "timed";
  std::uint64_t seed = 1;
  std::uint64_t size = 0;
  double seconds = 10.0;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto need = [&] {
      if (i + 1 >= argc) usage("missing option value");
      return std::string(argv[++i]);
    };
    const std::string a = argv[i];
    if (a == "--workload") o.workload = need();
    else if (a == "--mode") o.mode = need();
    else if (a == "--seed") o.seed = std::stoull(need());
    else if (a == "--size") o.size = std::stoull(need());
    else if (a == "--seconds") o.seconds = std::stod(need());
    else if (a == "--out") o.out = need();
    else usage(("unknown option " + a).c_str());
  }
  if (o.workload != "bulk_san" && o.workload != "kv_rpc" &&
      o.workload != "fleet_chaos")
    usage("--workload must be bulk_san, kv_rpc or fleet_chaos");
  if (o.mode != "timed" && o.mode != "traced" && o.mode != "once")
    usage("--mode must be timed, traced or once");
  if (o.size == 0) usage("--size must be positive");
  if (o.mode == "traced" && o.out.empty()) usage("traced mode needs --out");
  return o;
}

// --- tiny JSON writer ------------------------------------------------------

class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(k, buf);
  }
  Json& u64(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '\n') {
        q += "\\n";
        continue;
      }
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(k, q + "\"");
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- one repeat of a workload ----------------------------------------------

/// Everything one repeat reports. Host timings vary run to run; the rest is
/// the simulated testbed's deterministic output.
struct Repeat {
  // host
  double setup_s = 0.0;     // build + connection establishment
  double testbed_s = 0.0;   // bulk: EndToEndTestbed constructor
  double san_start_s = 0.0; // bulk: EndToEndTestbed::start (iSCSI/iSER login)
  double session_s = 0.0;   // bulk: RftpSession constructor
  double wall_s = 0.0;      // measured run phase
  double cpu_s = 0.0;       // user+sys over the run phase
  double calib_s = 0.0;     // reference kernel, mean of before and after
  int threads_before = 1;   // process threads when the repeat started
  // modeled
  bool complete = true;
  bool integrity_ok = true;
  bool audit_ok = true;
  std::uint64_t audit_violations = 0;
  std::uint64_t ops = 0;         // operations attempted
  std::uint64_t failed_ops = 0;  // operations that failed
  std::string digest;
  double goodput_gbps = 0.0;
  double fe_cpu_pct = 0.0;
  double kv_mops = 0.0;
  double kv_get_p99_us = 0.0;
  double kv_put_p99_us = 0.0;
  double modeled_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  Json extra;  // workload-specific counters (first repeat only)
  std::vector<std::string> stats_json;  // one dump per engine set up
  std::vector<std::string> trace_json;
  std::string binding;  // bulk: busiest resource over the run phase
};

struct Observe {
  bool audit = false;
  bool trace = false;
};

// bulk_san: the `e2e` scenario exactly as tools/e2e_transfer_sim builds it
// (NUMA tuning on, one file, 4 MiB blocks, 16 credits, default streams,
// checkpoint every block), timed call by call.
Repeat run_bulk(std::uint64_t gib, const Observe& ob) {
  Repeat rep;
  const std::uint64_t bytes = gib << 30;
  std::unique_ptr<exp::EndToEndTestbed> tb;
  rep.testbed_s = timed_call("exp.EndToEndTestbed", [&] {
    tb = std::make_unique<exp::EndToEndTestbed>(true, bytes);
  });
  rep.san_start_s =
      timed_call("exp.EndToEndTestbed.start", [&] { tb->start(); });
  numa::Process sp(*tb->src_fe, "client", numa::NumaBinding::os_default());
  numa::Process rp(*tb->dst_fe, "server", numa::NumaBinding::os_default());
  rftp::RftpConfig cfg;
  cfg.numa_aware = true;
  cfg.block_bytes = 4ull << 20;
  cfg.credits_per_stream = 16;
  cfg.checkpoint_blocks = 1;
  std::unique_ptr<rftp::RftpSession> sess;
  rep.session_s = timed_call("rftp.RftpSession", [&] {
    sess = std::make_unique<rftp::RftpSession>(
        rftp::EndpointConfig{&sp, tb->src_roce()},
        rftp::EndpointConfig{&rp, tb->dst_roce()}, tb->links(), cfg);
  });
  rep.setup_s = rep.testbed_s + rep.san_start_s + rep.session_s;

  exp::SanSection* san = tb->src_san.get();
  auto locality = [san](std::uint64_t off, std::uint64_t) {
    return san->fe_node_of(off);
  };
  metrics::ThroughputMeter meter(tb->eng, sim::kSecond);
  stats::Registry reg(tb->eng);
  reg.install();
  std::unique_ptr<check::Auditor> auditor;
  if (ob.audit) auditor = std::make_unique<check::Auditor>(tb->eng);
  std::unique_ptr<trace::Tracer> tracer;
  if (ob.trace) {
    // Same sampler period as the CLI's --trace.
    tracer = std::make_unique<trace::Tracer>(tb->eng);
    tracer->install();
    tracer->enable_resource_sampler(10 * sim::kMillisecond);
  }
  rftp::FileSource src(*tb->src_fs, *tb->src_file, true, locality);
  rftp::FileSink dst(*tb->dst_fs, *tb->dst_file);

  // Busy time before the run, so utilizations cover the run phase only.
  std::map<const sim::Resource*, sim::SimDuration> busy0;
  for (const sim::Resource* r : tb->eng.resources()) busy0[r] = r->busy_time();
  const std::uint64_t ev0 = tb->eng.events_processed();
  const sim::SimTime t0 = tb->eng.now();

  rftp::TransferResult r;
  const double c0 = cpu_now_s();
  rep.wall_s = timed_call("exp.run_task", [&] {
    r = exp::run_task(tb->eng, sess->run(src, dst, bytes, &meter));
  });
  rep.cpu_s = cpu_now_s() - c0;
  std::uint64_t sink = 0;
  timed_call("rftp.RftpSession.sink_digest",
             [&] { sink = sess->sink_digest(); });

  const sim::SimDuration window = tb->eng.now() - t0;
  rep.modeled_s = sim::to_seconds(window);
  rep.events = tb->eng.events_processed() - ev0;
  rep.complete = r.complete;
  rep.integrity_ok = r.integrity_ok;
  rep.ops = 1;
  rep.failed_ops = r.complete && r.integrity_ok ? 0 : 1;
  rep.goodput_gbps = r.goodput_gbps;
  rep.fe_cpu_pct = tb->src_fe->total_usage().total_percent(window) +
                   tb->dst_fe->total_usage().total_percent(window);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(sink));
  rep.digest = buf;

  // Resource utilization over the run phase, by resource family. Names
  // are "<host>/core<n>", "<host>/mem<n>", "<host>/qpi<a>-<b>", PCIe and
  // NIC resources of rdma::Device, and "<link>/ab|ba" for links.
  Json res;
  double best = -1.0;
  std::map<std::string, double> fam_max;
  for (const sim::Resource* rs : tb->eng.resources()) {
    const double util =
        window > 0 ? static_cast<double>(rs->busy_time() - busy0[rs]) /
                         static_cast<double>(window)
                   : 0.0;
    const std::string& n = rs->name();
    const auto slash = n.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? n : n.substr(slash + 1);
    std::string fam = "other";
    if (leaf.rfind("core", 0) == 0) fam = "core";
    else if (leaf.rfind("mem", 0) == 0) fam = "mem";
    else if (leaf.rfind("qpi", 0) == 0) fam = "qpi";
    else if (n.find("pcie") != std::string::npos) fam = "pcie";
    else if (leaf == "ab" || leaf == "ba") fam = "link";
    fam_max[fam] = std::max(fam_max[fam], util);
    if (util > best) {
      best = util;
      rep.binding = n;
    }
  }
  res.num("binding_util", best);
  for (const char* fam : {"mem", "qpi", "pcie", "link", "core"})
    res.num(std::string(fam) + "_util_max", fam_max[fam]);
  rep.extra.raw("res", res.str());

  if (auditor) {
    auditor->finalize();
    rep.audit_ok = auditor->ok();
    rep.audit_violations = auditor->violations().size();
    if (!rep.audit_ok) {
      std::ostringstream os;
      auditor->report(os);
      std::fputs(os.str().c_str(), stderr);
    }
  }
  if (tracer) {
    tracer->sample_now();
    std::ostringstream os;
    tracer->write_chrome_trace(os);
    rep.trace_json.push_back(os.str());
  }
  if (ob.audit) {  // the traced run; timed repeats skip the dump
    std::ostringstream os;
    reg.write_json(os);
    rep.stats_json.push_back(os.str());
  }
  return rep;
}

/// Splits a run_kv/run_fleet call into establish (everything outside the
/// parallel phase) and the parallel phase the result reports. Set-up and
/// merge are single-threaded, so their CPU is their wall time; the rest of
/// the call's CPU belongs to the parallel phase.
template <typename R>
void split_cluster_call(Repeat& rep, const R& r, double total_s, double cpu_s) {
  rep.wall_s = r.wall_seconds;
  rep.setup_s = total_s - r.wall_seconds;
  rep.cpu_s = std::max(0.0, cpu_s - rep.setup_s);
  rep.events = r.sim_events;
  rep.windows = r.windows;
  rep.cross_posts = r.cross_posts;
  rep.audit_ok = r.audit_ok;
  rep.audit_violations = r.audit_violations;
  rep.digest = r.digest;
  rep.stats_json.push_back(r.stats_json);
}

// kv_rpc: the `kv` scenario with 4 pairs, rpc GETs, 64 B values, depth 8,
// Zipf 0.99, 10% PUTs, every 16th op remote; the rest are CLI defaults.
exp::KvParams kv_params(std::uint64_t ops, std::uint64_t seed, int shards,
                        const Observe& ob) {
  exp::KvParams kp;
  kp.pairs = 4;
  kp.shards = shards;
  kp.keys = 16384;
  kp.ops_per_pair = ops;
  kp.value_bytes = 64;
  kp.store_shards = 2;
  kp.depth = 8;
  kp.get_via_read = false;
  kp.zipf_theta = 0.99;
  kp.put_frac = 0.1;
  kp.remote_every = 16;
  kp.seed = seed;
  kp.fault_seed = 0;
  kp.audit = ob.audit;
  kp.stats = true;
  return kp;
}

Repeat run_kv(std::uint64_t ops, std::uint64_t seed, int shards,
              const Observe& ob) {
  Repeat rep;
  const exp::KvParams kp = kv_params(ops, seed, shards, ob);
  exp::KvResult r;
  const double c0 = cpu_now_s();
  const double total = timed_call("exp.run_kv", [&] { r = exp::run_kv(kp); });
  split_cluster_call(rep, r, total, cpu_now_s() - c0);
  const std::uint64_t want = static_cast<std::uint64_t>(kp.pairs) * ops;
  rep.complete = r.complete && r.ops_done == want;
  rep.ops = want;
  rep.failed_ops = r.failed_ops + (want > r.ops_done ? want - r.ops_done : 0);
  rep.kv_mops = r.aggregate_mops;
  // Payload goodput: every GET and PUT moves one value.
  rep.goodput_gbps = r.aggregate_mops * 1e6 *
                     static_cast<double>(kp.value_bytes) * 8.0 / 1e9;
  rep.kv_get_p99_us = static_cast<double>(r.get_p99_ns) / 1e3;
  rep.kv_put_p99_us = static_cast<double>(r.put_p99_ns) / 1e3;
  // Modeled duration: the slowest pair's ops at its own rate.
  for (double m : r.pair_mops)
    if (m > 0)
      rep.modeled_s =
          std::max(rep.modeled_s, static_cast<double>(ops) / (m * 1e6));
  rep.extra.u64("gets", r.gets)
      .u64("puts", r.puts)
      .u64("remote_ops", r.remote_ops)
      .u64("failed_ops", r.failed_ops)
      .u64("rpc_retries", r.rpc_retries)
      .u64("stale_responses", r.stale_responses)
      .u64("calls_served", r.calls_served)
      .u64("doorbells", r.doorbells)
      .u64("doorbell_wrs", r.doorbell_wrs)
      .u64("poll_batches", r.poll_batches)
      .u64("poll_cqes", r.poll_cqes);
  return rep;
}

// fleet_chaos: the `fleet` scenario with 4 pairs and the CLI's defaults
// (4 MiB blocks, 16 credits, 3 streams, checkpoint every block) under a
// seeded chaos plan.
Repeat run_fleet(std::uint64_t gib, std::uint64_t fault_seed, int shards,
                 const Observe& ob) {
  Repeat rep;
  exp::FleetParams fp;
  fp.pairs = 4;
  fp.shards = shards;
  fp.bytes_per_pair = gib << 30;
  fp.block_bytes = 4ull << 20;
  fp.streams = 3;
  fp.credits = 16;
  fp.checkpoint_blocks = 1;
  fp.fault_seed = fault_seed;
  fp.fast_forward = false;
  fp.audit = ob.audit;
  fp.stats = true;
  fp.trace = ob.trace;
  exp::FleetResult r;
  const double c0 = cpu_now_s();
  const double total =
      timed_call("exp.run_fleet", [&] { r = exp::run_fleet(fp); });
  split_cluster_call(rep, r, total, cpu_now_s() - c0);
  rep.complete = r.complete;
  rep.integrity_ok = r.integrity_ok;
  rep.ops = static_cast<std::uint64_t>(fp.pairs);
  rep.failed_ops = r.complete && r.integrity_ok ? 0 : rep.ops;
  rep.goodput_gbps = r.aggregate_gbps;
  for (double g : r.pair_gbps)
    if (g > 0)
      rep.modeled_s =
          std::max(rep.modeled_s,
                   static_cast<double>(fp.bytes_per_pair) * 8.0 / (g * 1e9));
  rep.trace_json.push_back(r.trace_json);
  return rep;
}

// A chaos plan's timing moves the fleet's Cluster window count by +-10%
// from one fault seed to the next, so one fleet_chaos repeat runs several
// plans back to back; their sum varies less from seed to seed.
constexpr int kFleetPlans = 8;

/// Fault seed of plan `k` for benchmark seed `seed`; 0 would mean no chaos.
std::uint64_t fleet_fault_seed(std::uint64_t seed, int k) {
  const std::uint64_t f =
      seed * kFleetPlans + static_cast<std::uint64_t>(k) + 1;
  return f == 0 ? 1 : f;
}

Repeat run_fleet_plans(std::uint64_t gib, std::uint64_t seed, int shards,
                       const Observe& ob) {
  Repeat sum;
  for (int k = 0; k < kFleetPlans; ++k) {
    Repeat r = run_fleet(gib, fleet_fault_seed(seed, k), shards, ob);
    sum.setup_s += r.setup_s;
    sum.wall_s += r.wall_s;
    sum.cpu_s += r.cpu_s;
    sum.complete = sum.complete && r.complete;
    sum.integrity_ok = sum.integrity_ok && r.integrity_ok;
    sum.audit_ok = sum.audit_ok && r.audit_ok;
    sum.audit_violations += r.audit_violations;
    sum.ops += r.ops;
    sum.failed_ops += r.failed_ops;
    sum.digest += (k ? "\n" : "") + r.digest;
    sum.goodput_gbps += r.goodput_gbps / kFleetPlans;  // mean over plans
    sum.modeled_s += r.modeled_s;
    sum.events += r.events;
    sum.windows += r.windows;
    sum.cross_posts += r.cross_posts;
    sum.stats_json.push_back(std::move(r.stats_json.front()));
    sum.trace_json.push_back(std::move(r.trace_json.front()));
  }
  return sum;
}

struct Workload {
  Options o;
  int shards = 1;

  Repeat run(const Observe& ob) const {
    if (o.workload == "bulk_san") return run_bulk(o.size, ob);
    if (o.workload == "kv_rpc") return run_kv(o.size, o.seed, shards, ob);
    return run_fleet_plans(o.size, o.seed, shards, ob);
  }
};

/// One repeat bracketed by the host-speed reference kernel. A thread left
/// running by the previous repeat would slow the kernel and flatter the
/// normalized times, so the thread count is recorded too.
Repeat calibrated_run(const Workload& w, const Observe& ob, const char* name) {
  const int threads = static_cast<int>(proc_status("Threads:"));
  double before = 0.0, after = 0.0;
  timed_call("calibrate", [&] { before = perfbench::calibrate(); });
  const int id = g_spans.open(name);
  Repeat r = w.run(ob);
  g_spans.close(id);
  timed_call("calibrate", [&] { after = perfbench::calibrate(); });
  r.calib_s = 0.5 * (before + after);
  r.threads_before = threads;
  return r;
}

std::string repeat_json(const Repeat& r, bool with_extra) {
  Json j;
  j.num("setup_s", r.setup_s)
      .num("testbed_s", r.testbed_s)
      .num("san_start_s", r.san_start_s)
      .num("session_s", r.session_s)
      .num("wall_s", r.wall_s)
      .num("cpu_s", r.cpu_s)
      .num("calib_s", r.calib_s)
      .u64("threads_before", static_cast<std::uint64_t>(r.threads_before))
      .boolean("complete", r.complete)
      .boolean("integrity_ok", r.integrity_ok)
      .boolean("audit_ok", r.audit_ok)
      .u64("audit_violations", r.audit_violations)
      .u64("ops", r.ops)
      .u64("failed_ops", r.failed_ops)
      .str("digest", r.digest)
      .num("goodput_gbps", r.goodput_gbps)
      .num("fe_cpu_pct", r.fe_cpu_pct)
      .num("kv_mops", r.kv_mops)
      .num("kv_get_p99_us", r.kv_get_p99_us)
      .num("kv_put_p99_us", r.kv_put_p99_us)
      .num("modeled_s", r.modeled_s)
      .u64("events", r.events)
      .u64("windows", r.windows)
      .u64("cross_posts", r.cross_posts);
  if (with_extra) {
    j.str("binding", r.binding);
    j.raw("extra", r.extra.str());
  }
  return j.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  os << body;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Debug builds turn the CLI's --audit on by default, which changes the
  // timed work, and time an unoptimized core.
  std::fprintf(stderr, "perfbench_driver: refusing a %s build (needs NDEBUG)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  const Options o = parse(argc, argv);
  const Workload w{o, o.workload == "kv_rpc"        ? 4
                      : o.workload == "fleet_chaos" ? 2
                                                    : 1};

  Json out;
  out.str("workload", o.workload)
      .str("mode", o.mode)
      .u64("seed", o.seed)
      .u64("size", o.size)
      .u64("shards", static_cast<std::uint64_t>(w.shards))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER);

  if (o.mode == "once") {
    const Repeat r = w.run({});
    out.raw("repeats", "[" + repeat_json(r, false) + "]");
    out.num("peak_rss_mib", peak_rss_mib());
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // Untraced repeats until --seconds of measured phase have elapsed.
  const int root = g_spans.open("perfbench." + o.mode);
  std::vector<std::string> reps;
  double measured = 0.0;
  while (reps.size() < 3 || measured < o.seconds) {
    const Repeat r = calibrated_run(w, {}, "repeat");
    measured += r.wall_s;
    reps.push_back(repeat_json(r, reps.empty()));
  }
  std::string arr = "[";
  for (std::size_t i = 0; i < reps.size(); ++i)
    arr += (i ? ",\n" : "") + reps[i];
  out.raw("repeats", arr + "]");

  if (o.mode == "traced") {
    const Repeat t = calibrated_run(w, {true, true}, "traced_repeat");
    out.raw("traced", repeat_json(t, true));
    auto write_all = [&](const char* kind,
                         const std::vector<std::string>& docs) {
      for (std::size_t k = 0; k < docs.size(); ++k)
        write_file(o.out + "/" + kind + "-" + o.workload + "-" +
                       std::to_string(k) + ".json",
                   docs[k]);
    };
    write_all("stats", t.stats_json);
    write_all("trace", t.trace_json);
  }
  g_spans.close(root);
  if (o.mode == "traced") {
    std::ostringstream os;
    g_spans.write(os);
    write_file(o.out + "/spans-" + o.workload + ".json", os.str());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
