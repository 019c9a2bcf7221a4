#include "exp/figures.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "exp/exp.hpp"
#include "metrics/throughput.hpp"
#include "numa/stream.hpp"
#include "rftp/rftp.hpp"

namespace e2e::exp {

using metrics::CpuCategory;

MotivatingResult run_motivating(bool numa_tuned, sim::SimDuration duration) {
  MotivatingResult out;
  {
    sim::Engine eng;
    numa::Host host(eng, model::front_end_lan_host("fe"));
    out.stream_local_gBps =
        numa::run_stream_triad(eng, host, numa::StreamOptions{}).triad_gBps;
  }
  {
    sim::Engine eng;
    numa::Host host(eng, model::front_end_lan_host("fe"));
    numa::StreamOptions opts;
    opts.numa_local = false;
    out.stream_interleaved_gBps =
        numa::run_stream_triad(eng, host, opts).triad_gBps;
  }
  FrontEndPair pair;
  apps::IperfConfig cfg;
  cfg.bidirectional = true;
  cfg.numa_tuned = numa_tuned;
  cfg.sender_buffer_bytes = 256ull << 20;  // defeat the LLC
  cfg.duration = duration;
  const auto r = run_iperf(pair.eng, *pair.a, *pair.b, pair.iperf_links(),
                           cfg);
  out.iperf_gbps = r.aggregate_gbps;
  out.host_usage = r.usage_a;
  out.window = duration;
  out.copy_share = r.usage_a.total()
                       ? static_cast<double>(r.usage_a.get(CpuCategory::kCopy)) /
                             static_cast<double>(r.usage_a.total())
                       : 0.0;
  return out;
}

CostBreakdown run_fig4_rftp(std::uint64_t bytes) {
  FrontEndPair pair;
  numa::Process sp(*pair.a, "rftp-s", numa::NumaBinding::bound(0));
  numa::Process rp(*pair.b, "rftp-r", numa::NumaBinding::bound(0));
  rftp::RftpConfig cfg;
  cfg.streams = 1;
  cfg.block_bytes = 1 << 20;
  rftp::RftpSession sess({&sp, {pair.a_roce[0].get()}},
                         {&rp, {pair.b_roce[0].get()}},
                         {pair.links[0].get()}, cfg);
  rftp::ZeroSource src(bytes);
  rftp::NullSink dst;
  const sim::SimTime t0 = pair.eng.now();
  const auto res = run_task(pair.eng, sess.run(src, dst, bytes));
  CostBreakdown out;
  out.window = pair.eng.now() - t0;
  out.gbps = res.goodput_gbps;
  out.both_ends = pair.a->total_usage();
  out.both_ends.merge(pair.b->total_usage());
  return out;
}

CostBreakdown run_fig4_tcp(sim::SimDuration duration) {
  FrontEndPair pair;
  apps::IperfConfig cfg;
  cfg.numa_tuned = true;
  cfg.streams_per_link = 4;
  cfg.chunk_bytes = 1 << 20;
  cfg.sender_buffer_bytes = 256ull << 20;
  cfg.duration = duration;
  std::vector<apps::IperfLink> one = {pair.iperf_links()[0]};
  const auto r = run_iperf(pair.eng, *pair.a, *pair.b, one, cfg);
  CostBreakdown out;
  out.window = duration;
  out.gbps = r.aggregate_gbps;
  out.both_ends = r.usage_a;
  out.both_ends.merge(r.usage_b);
  return out;
}

IserPoint run_iser_point(bool numa_tuned, bool write, std::uint64_t block,
                         int threads_per_lun, sim::SimDuration duration) {
  SanConfig scfg;
  scfg.numa_tuned = numa_tuned;
  scfg.lun_bytes = 4ull << 30;
  SanTestbed tb(scfg);
  tb.start();
  apps::FioOptions opts;
  opts.block_bytes = block;
  opts.write = write;
  opts.duration = duration;
  const auto r = tb.run_fio(opts, threads_per_lun);
  IserPoint out;
  out.gbps = r.gbps;
  out.target_cpu_pct = r.target_cpu_pct;
  out.target_usage = r.target_usage;
  out.ios = r.ios;
  return out;
}

namespace {

/// Wall-clock mode: brackets a scenario run and records the simulator's own
/// cost — events dispatched and host-CPU seconds — alongside the modeled
/// results, so the perf-regression harness can watch the event core.
struct SimCostProbe {
  explicit SimCostProbe(sim::Engine& eng)
      : eng_(eng),
        events0_(eng.events_processed()),
        t0_(std::chrono::steady_clock::now()) {}
  void finish(E2eResult& out) const {
    out.sim_events = eng_.events_processed() - events0_;
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
  }
  sim::Engine& eng_;
  std::uint64_t events0_;
  std::chrono::steady_clock::time_point t0_;
};

E2eResult finish_e2e(EndToEndTestbed& tb, rftp::TransferResult res,
                     const metrics::ThroughputMeter& meter,
                     sim::SimDuration window) {
  E2eResult out;
  out.transfer = res;
  out.series_gbps = meter.series_gbps();
  out.src_usage = tb.src_fe->total_usage();
  out.dst_usage = tb.dst_fe->total_usage();
  out.window = window;
  return out;
}

/// Reads `file` with each block's buffer on the front-end node nearest the
/// SAN stripe that holds it (the NUMA-aware RFTP placement).
rftp::FileSource numa_aware_source(blk::FileSystem& fs, blk::File& file,
                                   SanSection& san) {
  return rftp::FileSource(fs, file, true,
                          [&san](std::uint64_t off, std::uint64_t) {
                            return san.fe_node_of(off);
                          });
}

/// The three RoCE links as GridFTP sees them, from `tb`'s source side to
/// its destination side or, with `reverse`, the other way round.
std::vector<apps::GridFtpLink> gridftp_links(const EndToEndTestbed& tb,
                                             bool reverse = false) {
  std::vector<apps::GridFtpLink> links;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto src = tb.src_devs[i]->node();
    const auto dst = tb.dst_devs[i]->node();
    links.push_back({tb.roce_links[i].get(), reverse ? dst : src,
                     reverse ? src : dst});
  }
  return links;
}

sim::Task<> done_after(sim::Task<rftp::TransferResult> t, sim::WaitGroup* w) {
  (void)co_await std::move(t);
  w->done();
}

/// Runs the forward and reverse transfers of `dataset` bytes each to
/// completion together on `tb` and reports them against the
/// unidirectional reference rate.
BidirResult run_both_ways(EndToEndTestbed& tb, std::uint64_t dataset,
                          double unidirectional_gbps,
                          sim::Task<rftp::TransferResult> fwd,
                          sim::Task<rftp::TransferResult> rev) {
  const sim::SimTime t0 = tb.eng.now();
  sim::WaitGroup wg(tb.eng);
  wg.add(2);
  sim::co_spawn(done_after(std::move(fwd), &wg));
  sim::co_spawn(done_after(std::move(rev), &wg));
  run_task(tb.eng, [](sim::WaitGroup& w) -> sim::Task<> {
    co_await w.wait();
  }(wg));
  const sim::SimDuration window = tb.eng.now() - t0;

  BidirResult out;
  out.unidirectional_gbps = unidirectional_gbps;
  out.aggregate_gbps = static_cast<double>(2 * dataset) * 8.0 /
                       static_cast<double>(window);
  out.improvement = out.aggregate_gbps / out.unidirectional_gbps - 1.0;
  out.src_usage = tb.src_fe->total_usage();
  out.window = window;
  return out;
}

}  // namespace

E2eResult run_e2e_rftp(std::uint64_t dataset, bool numa_tuned) {
  EndToEndTestbed tb(numa_tuned, dataset);
  tb.start();
  numa::Process sp(*tb.src_fe, "rftp-client", numa::NumaBinding::os_default());
  numa::Process rp(*tb.dst_fe, "rftp-server", numa::NumaBinding::os_default());
  rftp::RftpConfig cfg;
  cfg.numa_aware = numa_tuned;
  rftp::RftpSession sess({&sp, tb.src_roce()}, {&rp, tb.dst_roce()},
                         tb.links(), cfg);
  auto src = numa_aware_source(*tb.src_fs, *tb.src_file, *tb.src_san);
  rftp::FileSink dst(*tb.dst_fs, *tb.dst_file);
  metrics::ThroughputMeter meter(tb.eng, sim::kSecond);
  ScopedTrace ts(tb.eng);  // opt-in via E2E_TRACE / E2E_REPORT
  ScopedStats ss(tb.eng);  // always-on; dump opt-in via E2E_STATS
  const sim::SimTime t0 = tb.eng.now();
  const SimCostProbe probe(tb.eng);
  const auto res =
      run_task(tb.eng, sess.run(src, dst, dataset, &meter));
  if (auto* tr = ts.get()) tr->note("goodput_gbps", res.goodput_gbps);
  auto out = finish_e2e(tb, res, meter, tb.eng.now() - t0);
  probe.finish(out);
  out.drain_hist = ss.merged("drain_ns");
  return out;
}

E2eResult run_e2e_gridftp(std::uint64_t dataset, int processes) {
  EndToEndTestbed tb(true, dataset);
  tb.start();
  apps::GridFtpConfig cfg;
  cfg.processes = processes;
  const auto links = gridftp_links(tb);
  metrics::ThroughputMeter meter(tb.eng, sim::kSecond);
  const sim::SimTime t0 = tb.eng.now();
  const SimCostProbe probe(tb.eng);
  const auto res = run_task(
      tb.eng,
      apps::gridftp_transfer({tb.src_fe.get(), tb.src_fs.get(), tb.src_file},
                             {tb.dst_fe.get(), tb.dst_fs.get(), tb.dst_file},
                             links, dataset, cfg, &meter));
  auto out = finish_e2e(tb, res, meter, tb.eng.now() - t0);
  probe.finish(out);
  return out;
}

BidirResult run_e2e_rftp_bidir(std::uint64_t dataset) {
  // Unidirectional reference on an identical testbed.
  const double uni = run_e2e_rftp(dataset).transfer.goodput_gbps;

  EndToEndTestbed tb(true, dataset);
  tb.add_reverse_files();
  tb.start();
  numa::Process sp(*tb.src_fe, "rftp-c", numa::NumaBinding::os_default());
  numa::Process rp(*tb.dst_fe, "rftp-s", numa::NumaBinding::os_default());
  numa::Process sp2(*tb.dst_fe, "rftp-c2", numa::NumaBinding::os_default());
  numa::Process rp2(*tb.src_fe, "rftp-s2", numa::NumaBinding::os_default());
  rftp::RftpConfig cfg;
  rftp::RftpSession fwd({&sp, tb.src_roce()}, {&rp, tb.dst_roce()},
                        tb.links(), cfg);
  rftp::RftpSession rev({&sp2, tb.dst_roce()}, {&rp2, tb.src_roce()},
                        tb.links(), cfg);
  auto fsrc = numa_aware_source(*tb.src_fs, *tb.src_file, *tb.src_san);
  rftp::FileSink fdst(*tb.dst_fs, *tb.dst_file);
  auto rsrc = numa_aware_source(*tb.dst_fs, *tb.rev_src_file, *tb.dst_san);
  rftp::FileSink rdst(*tb.src_fs, *tb.rev_dst_file);
  return run_both_ways(tb, dataset, uni, fwd.run(fsrc, fdst, dataset),
                       rev.run(rsrc, rdst, dataset));
}

BidirResult run_e2e_gridftp_bidir(std::uint64_t dataset, int processes) {
  const double uni =
      run_e2e_gridftp(dataset, processes).transfer.goodput_gbps;

  EndToEndTestbed tb(true, dataset);
  tb.add_reverse_files();
  tb.start();
  apps::GridFtpConfig cfg;
  cfg.processes = processes;
  const auto fwd_links = gridftp_links(tb);
  const auto rev_links = gridftp_links(tb, true);
  return run_both_ways(
      tb, dataset, uni,
      apps::gridftp_transfer({tb.src_fe.get(), tb.src_fs.get(), tb.src_file},
                             {tb.dst_fe.get(), tb.dst_fs.get(), tb.dst_file},
                             fwd_links, dataset, cfg),
      apps::gridftp_transfer(
          {tb.dst_fe.get(), tb.dst_fs.get(), tb.rev_src_file},
          {tb.src_fe.get(), tb.src_fs.get(), tb.rev_dst_file}, rev_links,
          dataset, cfg));
}

WanPoint run_wan_point(int streams, std::uint64_t block,
                       std::uint64_t dataset, int credits) {
  WanTestbed tb;
  rftp::RftpConfig cfg;
  cfg.streams = streams;
  cfg.block_bytes = block;
  cfg.credits_per_stream = credits;
  rftp::RftpSession sess({tb.a_proc.get(), {tb.a_dev.get()}},
                         {tb.b_proc.get(), {tb.b_dev.get()}},
                         {tb.link.get()}, cfg);
  rftp::MemorySource src(dataset, numa::Placement::on(0));
  rftp::MemorySink dst;
  const sim::SimTime t0 = tb.eng.now();
  const auto res = run_task(tb.eng, sess.run(src, dst, dataset));
  const sim::SimDuration window = tb.eng.now() - t0;

  WanPoint out;
  out.gbps = res.goodput_gbps;
  out.utilization = res.goodput_gbps / 40.0;
  out.sender_cpu_pct =
      tb.a->total_usage().percent(CpuCategory::kUserProto, window);
  out.receiver_cpu_pct =
      tb.b->total_usage().percent(CpuCategory::kUserProto, window);
  return out;
}

}  // namespace e2e::exp
