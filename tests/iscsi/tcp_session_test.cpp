#include "iscsi/tcp_datamover.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hpp"
#include "testutil.hpp"

namespace e2e::iscsi {
namespace {

using e2e::test::TinyRig;
using e2e::test::make_buffer;
using metrics::CpuCategory;

struct TcpIscsiRig : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<test::TinyIscsi> t;
  TcpSession* session = nullptr;
  Target* target = nullptr;
  Initiator* initiator = nullptr;
  numa::Thread* ith = nullptr;

  void SetUp() override {
    exp::IscsiRigConfig cfg;
    cfg.transport = exp::Transport::kTcp;
    t = std::make_unique<test::TinyIscsi>(rig, 1, 8 << 20, cfg);
    session = t->iscsi.tcp();
    target = &t->iscsi.target();
    initiator = &t->iscsi.initiator();
    ith = t->ith;
  }

  void bring_up() {
    numa::Thread& itx = rig.proc_a->spawn_thread();
    numa::Thread& ttx = rig.proc_b->spawn_thread();
    t->iscsi.run_start(*ith, *t->tth, 2, &itx, &ttx);
  }
};

TEST_F(TcpIscsiRig, LoginOverTcpWorks) {
  bring_up();
  EXPECT_TRUE(initiator->logged_in());
}

TEST_F(TcpIscsiRig, ReadStreamsDataInPdus) {
  bring_up();
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status = exp::run_task(
      rig.eng, initiator->submit_read(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_EQ(t->luns[0]->backing().bytes_read, 2048u * 512);
  // 1 MiB moved in 256 KiB Data-In segments.
  EXPECT_EQ(session->target_ep().data_pdus(), 4u);
}

TEST_F(TcpIscsiRig, WriteUsesR2TDataOutFlow) {
  bring_up();
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto status = exp::run_task(
      rig.eng, initiator->submit_write(*ith, 0, 0, 2048, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_EQ(t->luns[0]->backing().bytes_written, 2048u * 512);
  // The initiator answered the R2T with Data-Out segments.
  EXPECT_EQ(session->initiator_ep().data_pdus(), 4u);
}

TEST_F(TcpIscsiRig, TcpPathPaysCopiesUnlikeIser) {
  bring_up();
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  const auto copies_before =
      rig.a->total_usage().get(CpuCategory::kCopy);
  exp::run_task(rig.eng, initiator->submit_read(*ith, 0, 0, 2048, buf));
  rig.eng.run();
  // The initiator host performed kernel->user copies for the payload.
  EXPECT_GT(rig.a->total_usage().get(CpuCategory::kCopy), copies_before);
  // And kernel protocol work on both hosts.
  EXPECT_GT(rig.a->total_usage().get(CpuCategory::kKernelProto), 0u);
  EXPECT_GT(rig.b->total_usage().get(CpuCategory::kKernelProto), 0u);
}

TEST_F(TcpIscsiRig, LargeIoSegmentsThroughStaging) {
  bring_up();
  auto buf = make_buffer(*rig.a, 4 << 20, 0);
  const auto status = exp::run_task(
      rig.eng, initiator->submit_read(*ith, 0, 0, 8192, buf));
  EXPECT_EQ(status, scsi::Status::kGood);
  EXPECT_EQ(t->luns[0]->backing().bytes_read, 4u << 20);
  rig.eng.run();
  EXPECT_EQ(t->staging.available(), t->staging.capacity());
}

TEST_F(TcpIscsiRig, ConcurrentMixedIoCompletes) {
  bring_up();
  auto b1 = make_buffer(*rig.a, 512 << 10, 0);
  auto b2 = make_buffer(*rig.a, 512 << 10, 0);
  int good = 0;
  sim::co_spawn([](Initiator& init, numa::Thread& th, mem::Buffer* buf,
                   int* ok) -> sim::Task<> {
    for (int i = 0; i < 5; ++i)
      if (co_await init.submit_read(th, 0, i * 1024, 1024, *buf) ==
          scsi::Status::kGood)
        ++*ok;
  }(*initiator, *ith, &b1, &good));
  sim::co_spawn([](Initiator& init, numa::Thread& th, mem::Buffer* buf,
                   int* ok) -> sim::Task<> {
    for (int i = 0; i < 5; ++i)
      if (co_await init.submit_write(th, 0, i * 1024, 1024, *buf) ==
          scsi::Status::kGood)
        ++*ok;
  }(*initiator, *ith, &b2, &good));
  rig.eng.run();
  EXPECT_EQ(good, 10);
  EXPECT_EQ(target->tasks_served(), 10u);
}

TEST_F(TcpIscsiRig, GetDataFromInitiatorSideThrows) {
  bring_up();
  auto buf = make_buffer(*rig.a, 4096, 0);
  EXPECT_THROW(
      exp::run_task(rig.eng,
                    session->initiator_ep().get_data(
                        *ith, buf, 4096, rdma::RemoteKey{&buf}, 0)),
      std::logic_error);
}

TEST_F(TcpIscsiRig, DoubleStartThrows) {
  bring_up();
  EXPECT_THROW(session->initiator_ep().start(*ith, *ith), std::logic_error);
}

}  // namespace
}  // namespace e2e::iscsi
