// Paper-shape regression suite.
//
// Each test pins one qualitative claim from the paper's evaluation. The
// tests call the same drivers (exp/figures.hpp) the bench binaries print,
// on shorter runs; the bench binaries print the full sweeps. Only the
// STREAM peak runs its kernel alone, without the motivating iperf pair.
// If calibration drifts, these tests catch it.
#include <gtest/gtest.h>

#include "exp/figures.hpp"
#include "model/host_profile.hpp"
#include "numa/stream.hpp"

namespace e2e {
namespace {

using metrics::CpuCategory;

// §2.3: STREAM triad on the front-end host peaks at ~50 GB/s.
TEST(PaperShapes, StreamTriadPeak) {
  sim::Engine eng;
  numa::Host host(eng, model::front_end_lan_host("fe"));
  const auto r = numa::run_stream_triad(eng, host, numa::StreamOptions{});
  EXPECT_NEAR(r.triad_gBps, 50.0, 2.5);
}

// §2.3: NUMA-tuned iperf beats the default scheduler (83.5 -> 91.8 Gbps).
TEST(PaperShapes, MotivatingIperfNumaGain) {
  const auto def = exp::run_motivating(false, sim::kSecond);
  const auto tuned = exp::run_motivating(true, sim::kSecond);
  EXPECT_NEAR(def.iperf_gbps, 83.5, 12.0);
  EXPECT_NEAR(tuned.iperf_gbps, 91.8, 12.0);
  EXPECT_GT(tuned.iperf_gbps / def.iperf_gbps, 1.04);
  // copy_user-style routines consume a large share (paper: ~35%).
  EXPECT_GT(def.copy_share, 0.2);
  EXPECT_LT(def.copy_share, 0.5);
}

// Fig. 4: at the same 39 Gbps, RDMA costs ~1.2 cores vs TCP's ~6.4, and
// the category split matches (zero copy cost, no kernel protocol cost).
TEST(PaperShapes, Fig4CostBreakdown) {
  const auto rftp = exp::run_fig4_rftp(6ull << 30);
  const auto& rdma = rftp.both_ends;
  const auto w = rftp.window;
  EXPECT_NEAR(rftp.gbps, 39.0, 2.5);
  EXPECT_NEAR(rdma.total_percent(w), 122.0, 30.0);
  EXPECT_NEAR(rdma.percent(CpuCategory::kLoad, w), 70.0, 12.0);
  EXPECT_EQ(rdma.get(CpuCategory::kCopy), 0u);        // zero-copy
  EXPECT_EQ(rdma.get(CpuCategory::kKernelProto), 0u);  // kernel bypass

  // TCP at the same rate.
  const auto tcp = exp::run_fig4_tcp(sim::kSecond);
  const auto& tcpu = tcp.both_ends;
  EXPECT_NEAR(tcp.gbps, 39.0, 4.0);
  // TCP needs several times the CPU of RDMA (paper: 642% vs 122%).
  EXPECT_GT(tcpu.total_percent(tcp.window), 3.5 * rdma.total_percent(w));
  EXPECT_GT(tcpu.percent(CpuCategory::kKernelProto, tcp.window), 200.0);
  EXPECT_GT(tcpu.percent(CpuCategory::kCopy, tcp.window), 120.0);
}

// Figs. 7/8: the iSER orderings at 4 MiB blocks.
TEST(PaperShapes, Fig7IserBandwidthOrdering) {
  const auto tuned_read = exp::run_iser_point(true, false, 4ull << 20);
  const auto tuned_write = exp::run_iser_point(true, true, 4ull << 20);
  const auto def_read = exp::run_iser_point(false, false, 4ull << 20);
  const auto def_write = exp::run_iser_point(false, true, 4ull << 20);

  // Reads (RDMA Write) outperform writes (RDMA Read) when tuned.
  EXPECT_GT(tuned_read.gbps, tuned_write.gbps);
  // Writes collapse without NUMA tuning (paper: -19%); reads barely move.
  EXPECT_LT(def_write.gbps, 0.88 * tuned_write.gbps);
  EXPECT_GT(def_read.gbps, 0.90 * tuned_read.gbps);
  // Absolute anchor: tuned write ~94.8 Gbps (the path limit of Fig. 9).
  EXPECT_NEAR(tuned_write.gbps, 94.8, 6.0);
}

TEST(PaperShapes, Fig8IserCpuOrdering) {
  const auto tuned_write = exp::run_iser_point(true, true, 4ull << 20);
  const auto def_write = exp::run_iser_point(false, true, 4ull << 20);
  const auto tuned_read = exp::run_iser_point(true, false, 4ull << 20);
  const auto def_read = exp::run_iser_point(false, false, 4ull << 20);
  // Paper: default binding costs ~3x CPU for writes; reads see a far
  // smaller penalty.
  EXPECT_GT(def_write.target_cpu_pct, 2.0 * tuned_write.target_cpu_pct);
  EXPECT_LT(def_read.target_cpu_pct, 1.7 * tuned_read.target_cpu_pct);
}

// Fig. 9/10: end-to-end RFTP ~91 Gbps (~96% of the 94.8 path limit);
// GridFTP ~29 Gbps with a kernel-heavy profile.
TEST(PaperShapes, Fig9EndToEndThroughput) {
  const auto rftp = exp::run_e2e_rftp(12ull << 30);
  const auto grid = exp::run_e2e_gridftp(4ull << 30);
  EXPECT_NEAR(rftp.transfer.goodput_gbps, 91.0, 8.0);
  EXPECT_NEAR(grid.transfer.goodput_gbps, 29.0, 7.0);
  // Paper: ~3x RFTP advantage.
  EXPECT_GT(rftp.transfer.goodput_gbps / grid.transfer.goodput_gbps, 2.3);
  // Fig. 10: GridFTP's sys CPU dominates its user CPU.
  const auto& gu = grid.src_usage;
  EXPECT_GT(gu.get(CpuCategory::kKernelProto), gu.get(CpuCategory::kUserProto));
}

// Fig. 10: GridFTP's sys CPU (kernel protocol + copies) makes up nearly
// all of its protocol CPU; RFTP is zero-copy end to end.
TEST(PaperShapes, Fig10EndToEndCpuBreakdown) {
  const auto grid = exp::run_e2e_gridftp(1ull << 30);
  const auto& gu = grid.src_usage;
  const double sys = static_cast<double>(gu.get(CpuCategory::kKernelProto) +
                                         gu.get(CpuCategory::kCopy));
  const double user = static_cast<double>(gu.get(CpuCategory::kUserProto));
  EXPECT_GE(sys / (sys + user), 0.80);
  const auto rftp = exp::run_e2e_rftp(4ull << 30);
  EXPECT_EQ(rftp.src_usage.get(CpuCategory::kCopy), 0u);
  EXPECT_EQ(rftp.dst_usage.get(CpuCategory::kCopy), 0u);
}

// Fig. 11: RFTP gains more absolute bandwidth from the second direction
// than GridFTP, which is CPU-capped. (The paper's +83% RFTP gain is a
// known model limit, EXPERIMENTS.md, and is not pinned.)
TEST(PaperShapes, Fig11BidirGain) {
  const auto rftp = exp::run_e2e_rftp_bidir(2ull << 30);
  const auto grid = exp::run_e2e_gridftp_bidir(512ull << 20);
  const double rftp_gain = rftp.aggregate_gbps - rftp.unidirectional_gbps;
  const double grid_gain = grid.aggregate_gbps - grid.unidirectional_gbps;
  EXPECT_GT(grid_gain, 0.0);
  EXPECT_GT(rftp_gain, grid_gain);
}

// Fig. 12: per aggregate gigabit, bidirectional GridFTP burns far more CPU
// than RFTP. CPU% and Gbps share the window, so the ratio does not depend
// on how long the run is.
TEST(PaperShapes, Fig12BidirCpuPerGbps) {
  const auto rftp = exp::run_e2e_rftp_bidir(2ull << 30);
  const auto grid = exp::run_e2e_gridftp_bidir(512ull << 20);
  const double grid_per_gbps =
      grid.src_usage.total_percent(grid.window) / grid.aggregate_gbps;
  const double rftp_per_gbps =
      rftp.src_usage.total_percent(rftp.window) / rftp.aggregate_gbps;
  EXPECT_GT(grid_per_gbps, 10.0 * rftp_per_gbps);
}

// Fig. 13: WAN RFTP reaches ~97% utilization with enough streams and
// large blocks, and is window-limited with few/small ones.
TEST(PaperShapes, Fig13WanBandwidth) {
  EXPECT_GT(exp::run_wan_point(4, 8ull << 20, 12ull << 30).gbps, 0.95 * 40.0);
  // Window-bound: ~16 MiB / 95 ms ~= 1.4 Gbps.
  EXPECT_LT(exp::run_wan_point(1, 1ull << 20, 1ull << 30).gbps, 3.0);
}

// Fig. 14: WAN CPU per gigabit falls as block size grows.
TEST(PaperShapes, Fig14WanCpuFallsWithBlockSize) {
  auto cpu_per_gbps = [](std::uint64_t block) {
    const auto p = exp::run_wan_point(4, block, 6ull << 30);
    return p.sender_cpu_pct / p.gbps;
  };
  EXPECT_GT(cpu_per_gbps(1 << 20), 1.5 * cpu_per_gbps(8 << 20));
}

}  // namespace
}  // namespace e2e
