// e2e::Layer — which layer of the stack a track, metric or flight record
// belongs to. One enum serves every observer: the tracer renders one
// Perfetto process per layer, the stats registry groups entities by it, and
// each flight record carries it.
#pragma once

#include <cstdint>
#include <string_view>

namespace e2e {

enum class Layer : std::uint8_t {
  kSim,    // engine resources (links, cores, memory channels, QPI, PCIe)
  kRdma,   // verbs queue pairs
  kTcp,    // TCP/IP connections
  kIscsi,  // iSCSI session layer
  kIser,   // iSER datamover
  kRftp,   // RFTP transfer protocol
  kBlk,    // block / filesystem
  kApp,    // applications and drivers
  kFault,  // fault injection (chaos plans, injected faults, recoveries)
};
inline constexpr int kLayerCount = 9;

constexpr std::string_view to_string(Layer l) noexcept {
  switch (l) {
    case Layer::kSim: return "sim";
    case Layer::kRdma: return "rdma";
    case Layer::kTcp: return "tcp";
    case Layer::kIscsi: return "iscsi";
    case Layer::kIser: return "iser";
    case Layer::kRftp: return "rftp";
    case Layer::kBlk: return "blk";
    case Layer::kApp: return "app";
    case Layer::kFault: return "fault";
  }
  return "?";
}

}  // namespace e2e
