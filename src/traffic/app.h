// Application process model: a named group of TCP connections sharing an
// app id and an SR-IOV VF port, with scheduled start/stop times — the
// App0..App3 / NC / KVS / ML / WS processes of the paper's experiments.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "traffic/tcp.h"

namespace flowvalve::traffic {

struct AppConfig {
  std::string name;
  std::uint32_t app_id = 0;
  std::uint16_t vf_port = 0;
  unsigned num_connections = 1;
  std::uint32_t wire_bytes = 1518;
  TcpAimdConfig tcp;

  /// Five-tuple template: each connection gets src_port_base + i.
  std::uint32_t src_ip = 0x0a000001;  // 10.0.0.1
  std::uint32_t dst_ip = 0x0a000002;
  std::uint16_t src_port_base = 20000;
  std::uint16_t dst_port = 5001;
};

class AppProcess {
 public:
  AppProcess(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids, AppConfig config,
             sim::Rng rng);

  /// Start/stop all connections now.
  void start();
  void stop();

  /// Schedule start/stop at absolute virtual times.
  void run_between(SimTime start_at, SimTime stop_at);

  /// Change the number of live connections at runtime (the paper varies
  /// 4..256 connections per process). New connections inherit the config.
  void set_connections(unsigned n);

  const AppConfig& config() const { return config_; }
  bool active() const { return active_; }
  std::size_t connections() const { return flows_.size(); }

  std::uint64_t packets_sent() const;
  std::uint64_t packets_lost() const;

 private:
  std::unique_ptr<TcpAimdFlow> make_flow(unsigned index);

  sim::Simulator& sim_;
  FlowRouter& router_;
  IdAllocator& ids_;
  AppConfig config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<TcpAimdFlow>> flows_;
  bool active_ = false;
};

}  // namespace flowvalve::traffic
