#include "check/fuzzer.h"

#include <algorithm>
#include <sstream>

namespace flowvalve::check {

namespace {

using sim::Rate;
using sim::Rng;

/// Internal node of the policy tree being generated.
struct GenNode {
  std::string classid;
  std::string name;
  int depth = 0;
  double weight = 1.0;
  unsigned prio = 0;
  Rate ceil = Rate::zero();       // zero = unlimited (omitted from script)
  Rate guarantee = Rate::zero();
  Rate static_share = Rate::zero();
  std::vector<GenNode> children;

  bool is_leaf() const { return children.empty(); }
};

constexpr unsigned kMaxLeaves = 8;

void gen_subtree(Rng& rng, GenNode& node, Rate link, unsigned& leaves_left) {
  if (node.depth >= 3 || leaves_left == 0) return;
  // Deeper nodes branch less often; the root always branches.
  const bool branch = node.depth == 0 || rng.chance(node.depth == 1 ? 0.35 : 0.2);
  if (!branch) return;
  const unsigned want = 2 + static_cast<unsigned>(rng.next_below(3));  // 2-4
  const unsigned n = std::min<unsigned>(want, leaves_left);
  if (n < 2) return;
  leaves_left -= n;  // children start as leaves; branching gives slots back
  for (unsigned i = 0; i < n; ++i) {
    GenNode child;
    // "1:0" is the frontend's alias for the root handle, so top-level
    // children start at digit 1; deeper digit-paths are unique by prefix.
    child.classid =
        node.classid + std::to_string(node.depth == 0 ? i + 1 : i);
    child.depth = node.depth + 1;
    child.weight = 1.0 + static_cast<double>(rng.next_below(8));
    child.prio = rng.chance(0.3) ? 1 : 0;
    if (rng.chance(0.3)) child.ceil = link * rng.uniform(0.2, 0.9);
    node.children.push_back(std::move(child));
  }
  for (auto& child : node.children) {
    gen_subtree(rng, child, link, leaves_left);
    if (!child.is_leaf()) ++leaves_left;  // interior node frees its leaf slot
  }
}

void assign_shares_and_guarantees(Rng& rng, GenNode& node, Rate parent_share,
                                  unsigned total_leaves) {
  double wsum = 0.0;
  for (const auto& c : node.children) wsum += c.weight;
  for (auto& c : node.children) {
    Rate share = parent_share * (c.weight / wsum);
    if (c.is_leaf() && rng.chance(0.25)) {
      Rate g = parent_share * rng.uniform(0.05, 0.3) /
               static_cast<double>(total_leaves);
      if (!c.ceil.is_zero() && g > c.ceil) g = c.ceil * 0.5;
      c.guarantee = g;
      if (c.guarantee > share) share = c.guarantee;
    }
    if (!c.ceil.is_zero() && share > c.ceil) share = c.ceil;
    c.static_share = share;
    assign_shares_and_guarantees(rng, c, share, total_leaves);
  }
}

void collect_leaves(GenNode& node, std::vector<GenNode*>& out) {
  if (node.is_leaf()) {
    out.push_back(&node);
    return;
  }
  for (auto& c : node.children) collect_leaves(c, out);
}

std::string rate_token(Rate r) {
  std::ostringstream s;
  s << r.gbps() << "gbit";
  return s.str();
}

void emit_classes(std::ostringstream& s, const GenNode& node,
                  const std::string& parent_handle) {
  for (const auto& c : node.children) {
    s << "fv class add dev nic0 parent " << parent_handle << " classid 1:"
      << c.classid << " name " << c.name << " prio " << c.prio << " weight "
      << c.weight;
    if (!c.ceil.is_zero()) s << " ceil " << rate_token(c.ceil);
    if (!c.guarantee.is_zero()) s << " guarantee " << rate_token(c.guarantee);
    s << "\n";
  }
  for (const auto& c : node.children)
    if (!c.is_leaf()) emit_classes(s, c, "1:" + c.classid);
}

void name_nodes(GenNode& node) {
  for (auto& c : node.children) {
    c.name = (c.is_leaf() ? "leaf" : "grp") + c.classid;
    name_nodes(c);
  }
}

FuzzFlow::Kind pick_kind(Rng& rng) {
  const double x = rng.next_double();
  if (x < 0.4) return FuzzFlow::Kind::kCbr;
  if (x < 0.6) return FuzzFlow::Kind::kPoisson;
  if (x < 0.8) return FuzzFlow::Kind::kOnOff;
  return FuzzFlow::Kind::kTcp;
}

}  // namespace

const char* FuzzFlow::kind_name() const {
  switch (kind) {
    case Kind::kCbr: return "cbr";
    case Kind::kPoisson: return "poisson";
    case Kind::kOnOff: return "onoff";
    case Kind::kTcp: return "tcp";
    case Kind::kChurn: return "churn";
  }
  return "?";
}

FuzzScenario generate_scenario(std::uint64_t seed) {
  const Rng root_rng(seed);
  FuzzScenario sc;
  sc.seed = seed;

  // -- NP configuration ----------------------------------------------------
  Rng nic_rng = root_rng.split("nic");
  const double link_choices[] = {10.0, 25.0, 40.0};
  sc.link_rate = Rate::gigabits_per_sec(link_choices[nic_rng.next_below(3)]);
  sc.nic = np::NpConfig{};
  sc.nic.wire_rate = sc.link_rate;
  sc.nic.num_workers = 4 + static_cast<unsigned>(nic_rng.next_below(61));
  const std::size_t vf_caps[] = {64, 128, 256, 512};
  sc.nic.vf_ring_capacity = vf_caps[nic_rng.next_below(4)];
  const std::size_t tx_caps[] = {256, 1024, 2048};
  sc.nic.tx_ring_capacity = tx_caps[nic_rng.next_below(3)];
  sc.nic.enforce_reorder = nic_rng.chance(0.8);
  sc.nic.fixed_pipeline_delay =
      sim::microseconds(1 + static_cast<std::int64_t>(nic_rng.next_below(50)));
  // Worker burst size, drawn from its own split so every other scenario
  // field is unchanged for a given seed. The set straddles the interesting
  // boundaries: one-packet bursts, a tiny burst, and one packet either side
  // of the default 32 (short trailing bursts / exact fill).
  Rng batch_rng = root_rng.split("batch");
  const unsigned batch_choices[] = {1, 2, 31, 32, 33};
  sc.nic.batch_size = batch_choices[batch_rng.next_below(5)];

  // Scheduling discipline, from its own split (adding it never perturbed
  // older seeds' scenarios). FlowValve keeps half the corpus — it is the
  // production default and the only backend with the full checker set —
  // while the rank valves split the rest so every discipline soaks in the
  // same scenario space: fv 3/6, stfq 2/6, eiffel 1/6. The slot count is
  // part of every seed's scenario, so changing it re-rolls the corpus.
  Rng backend_rng = root_rng.split("backend");
  const core::BackendKind backend_choices[] = {
      core::BackendKind::kFlowValve, core::BackendKind::kFlowValve,
      core::BackendKind::kFlowValve, core::BackendKind::kStfq,
      core::BackendKind::kEiffel, core::BackendKind::kStfq};
  sc.nic.backend = backend_choices[backend_rng.next_below(6)];

  // -- policy tree ---------------------------------------------------------
  Rng pol_rng = root_rng.split("policy");
  GenNode tree_root;
  tree_root.classid = "";  // children become 1:0..1:n
  tree_root.static_share = sc.link_rate;
  unsigned leaves_left = kMaxLeaves;
  // Retry until the root actually branches (a rootless policy is trivial).
  for (int attempt = 0; tree_root.children.empty() && attempt < 8; ++attempt) {
    leaves_left = kMaxLeaves;
    gen_subtree(pol_rng, tree_root, sc.link_rate, leaves_left);
  }
  if (tree_root.children.empty()) {
    // Degenerate fallback: two equal leaves.
    for (int i = 1; i <= 2; ++i) {
      GenNode c;
      c.classid = std::to_string(i);
      c.depth = 1;
      tree_root.children.push_back(std::move(c));
    }
  }
  name_nodes(tree_root);

  std::vector<GenNode*> leaves;
  collect_leaves(tree_root, leaves);
  assign_shares_and_guarantees(pol_rng, tree_root, sc.link_rate,
                               static_cast<unsigned>(leaves.size()));
  sc.nic.num_vfs = static_cast<unsigned>(leaves.size());

  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << rate_token(sc.link_rate)
    << "\n";
  emit_classes(s, tree_root, "1:");
  // Borrow labels: each leaf may query a random subset of the other leaves.
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (!pol_rng.chance(0.6) || leaves.size() < 2) continue;
    std::vector<std::string> lenders;
    for (std::size_t j = 0; j < leaves.size(); ++j)
      if (j != i && pol_rng.chance(0.5))
        lenders.push_back("1:" + leaves[j]->classid);
    if (lenders.empty()) lenders.push_back("1:" + leaves[i == 0 ? 1 : 0]->classid);
    s << "fv borrow add dev nic0 classid 1:" << leaves[i]->classid << " from ";
    for (std::size_t k = 0; k < lenders.size(); ++k)
      s << (k ? "," : "") << lenders[k];
    s << "\n";
  }
  for (std::size_t i = 0; i < leaves.size(); ++i)
    s << "fv filter add dev nic0 pref " << 10 + i << " vf " << i << " classid 1:"
      << leaves[i]->classid << "\n";
  sc.fv_script = s.str();

  for (std::size_t i = 0; i < leaves.size(); ++i) {
    FuzzLeaf leaf;
    leaf.classid = "1:" + leaves[i]->classid;
    leaf.name = leaves[i]->name;
    leaf.vf = static_cast<std::uint16_t>(i);
    leaf.weight = leaves[i]->weight;
    leaf.static_share = leaves[i]->static_share;
    leaf.ceil = leaves[i]->ceil.is_zero() ? sc.link_rate : leaves[i]->ceil;
    sc.leaves.push_back(std::move(leaf));
  }

  // -- workload ------------------------------------------------------------
  Rng wl_rng = root_rng.split("workload");
  sc.horizon = sim::milliseconds(15 + static_cast<std::int64_t>(wl_rng.next_below(26)));
  const bool big_frames_only = sc.link_rate.gbps() > 25.0;
  std::uint32_t next_app = 0;
  for (const FuzzLeaf& leaf : sc.leaves) {
    const unsigned flows = 1 + static_cast<unsigned>(wl_rng.next_below(2));
    for (unsigned f = 0; f < flows; ++f) {
      FuzzFlow flow;
      flow.kind = pick_kind(wl_rng);
      flow.vf = leaf.vf;
      flow.app_id = next_app++;
      flow.rate = leaf.static_share * wl_rng.uniform(0.4, 1.8) /
                  static_cast<double>(flows);
      flow.frame_bytes = big_frames_only
                             ? 1518
                             : (wl_rng.chance(0.5) ? 1518u : 1024u);
      flow.start = static_cast<sim::SimTime>(
          wl_rng.uniform(0.0, 0.25 * static_cast<double>(sc.horizon)));
      flow.stop = static_cast<sim::SimTime>(
          wl_rng.uniform(0.6, 1.0) * static_cast<double>(sc.horizon));
      sc.flows.push_back(flow);
    }
  }

  // -- flow-table stress ---------------------------------------------------
  // EMC geometry and churn ride their own splits so seeds minted before the
  // cuckoo flow table produce the same policy/workload as before, just with
  // a randomized cache on top.
  Rng emc_rng = root_rng.split("emc");
  const std::size_t emc_caps[] = {4096, 16384, 65536, 262144};
  sc.nic.emc_capacity = emc_caps[emc_rng.next_below(4)];
  Rng churn_rng = root_rng.split("churn");
  if (churn_rng.chance(0.35)) {
    // One churn source sharing the link with the leaf-targeted flows. Its
    // live-flow ceiling deliberately straddles the EMC capacity so some
    // scenarios fit in cache and others thrash it.
    FuzzFlow flow;
    flow.kind = FuzzFlow::Kind::kChurn;
    flow.vf = 0;
    flow.app_id = next_app++;
    const std::size_t live_choices[] = {1024, 8192, 65536, 131072};
    flow.live_flows = live_choices[churn_rng.next_below(4)];
    flow.rate = sc.link_rate * churn_rng.uniform(0.1, 0.5);
    flow.frame_bytes = 1518;
    flow.start = 0;
    flow.stop = sc.horizon;
    sc.flows.push_back(flow);
  }
  return sc;
}

FuzzScenario generate_differential_scenario(std::uint64_t seed) {
  const Rng root_rng(seed);
  Rng rng = root_rng.split("differential");

  FuzzScenario sc;
  sc.seed = seed;
  sc.link_rate = Rate::gigabits_per_sec(10);
  sc.nic = np::NpConfig{};
  sc.nic.wire_rate = sc.link_rate;
  sc.nic.fixed_pipeline_delay = sim::microseconds(15);
  sc.horizon = sim::milliseconds(250);

  const unsigned classes = 2 + static_cast<unsigned>(rng.next_below(4));  // 2-5
  sc.nic.num_vfs = classes;

  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << rate_token(sc.link_rate)
    << "\n";
  std::vector<double> weights;
  double wsum = 0.0;
  for (unsigned i = 0; i < classes; ++i) {
    weights.push_back(1.0 + static_cast<double>(rng.next_below(4)));
    wsum += weights.back();
  }
  for (unsigned i = 0; i < classes; ++i)
    s << "fv class add dev nic0 parent 1: classid 1:" << i + 1 << " name fair"
      << i << " weight " << weights[i] << "\n";
  for (unsigned i = 0; i < classes; ++i) {
    s << "fv borrow add dev nic0 classid 1:" << i + 1 << " from ";
    bool first = true;
    for (unsigned j = 0; j < classes; ++j) {
      if (j == i) continue;
      s << (first ? "" : ",") << "1:" << j + 1;
      first = false;
    }
    s << "\n";
  }
  for (unsigned i = 0; i < classes; ++i)
    s << "fv filter add dev nic0 pref " << 10 + i << " vf " << i << " classid 1:"
      << i + 1 << "\n";
  sc.fv_script = s.str();

  for (unsigned i = 0; i < classes; ++i) {
    FuzzLeaf leaf;
    leaf.classid = "1:" + std::to_string(i + 1);
    leaf.name = "fair" + std::to_string(i);
    leaf.vf = static_cast<std::uint16_t>(i);
    leaf.weight = weights[i];
    leaf.static_share = sc.link_rate * (weights[i] / wsum);
    leaf.ceil = sc.link_rate;
    sc.leaves.push_back(std::move(leaf));

    // Saturating open-loop CBR: every class demands 1.5× its fair share, so
    // the weighted-fair allocation is the unique max-min outcome.
    FuzzFlow flow;
    flow.kind = FuzzFlow::Kind::kCbr;
    flow.vf = leaf.vf;
    flow.app_id = i;
    flow.rate = sc.leaves.back().static_share * 1.5;
    flow.frame_bytes = 1518;
    flow.start = 0;
    flow.stop = sc.horizon;
    sc.flows.push_back(flow);
  }
  return sc;
}

np::NpConfig generate_invalid_config(std::uint64_t seed) {
  const Rng root_rng(seed);
  Rng rng = root_rng.split("invalid-config");
  np::NpConfig c;
  c.num_workers = 1 + static_cast<unsigned>(rng.next_below(64));
  c.num_vfs = 1 + static_cast<unsigned>(rng.next_below(16));
  c.vf_ring_capacity = 1 + rng.next_below(512);
  c.tx_ring_capacity = 1 + rng.next_below(2048);
  c.wire_rate = Rate::gigabits_per_sec(1.0 + rng.uniform(0.0, 99.0));
  switch (rng.next_below(7)) {
    case 0: c.num_vfs = 0; break;
    case 1: c.num_workers = 0; break;
    case 2: c.vf_ring_capacity = 0; break;
    case 3: c.tx_ring_capacity = 0; break;
    case 4: c.reorder_capacity = 0; break;
    case 5: c.freq_ghz = 0.0; break;
    case 6: c.wire_rate = Rate::zero(); break;
  }
  return c;
}

std::string FuzzScenario::describe() const {
  std::ostringstream s;
  s << "seed 0x" << std::hex << seed << std::dec << ": link "
    << link_rate.to_string() << ", " << nic.num_workers << " workers, "
    << nic.num_vfs << " VFs (ring " << nic.vf_ring_capacity << "), tx ring "
    << nic.tx_ring_capacity << ", reorder "
    << (nic.enforce_reorder ? "on" : "off") << ", admission "
    << (nic.recovery.admission_enabled ? "on" : "off") << ", batch "
    << nic.batch_size
    << ", backend " << core::backend_kind_name(nic.backend) << ", emc "
    << nic.emc_capacity << ", horizon " << sim::to_millis(horizon) << " ms\n";
  s << "policy:\n" << fv_script;
  s << "flows:\n";
  for (const auto& f : flows) {
    s << "  vf" << f.vf << " app" << f.app_id << " " << f.kind_name() << " "
      << f.rate.to_string() << " frame " << f.frame_bytes << "B ["
      << sim::to_millis(f.start) << ", " << sim::to_millis(f.stop) << ") ms";
    if (f.kind == FuzzFlow::Kind::kChurn) s << " live " << f.live_flows;
    s << "\n";
  }
  return s.str();
}

}  // namespace flowvalve::check
