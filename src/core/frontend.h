// The fv front end (paper §III-E): a tc-compatible command grammar that
// builds the scheduling tree, filter rules, and borrowing labels. The paper
// implements this part as a host-side Python service; here it is a small
// C++ parser so policies in examples/benches are declared exactly as an
// administrator would type them.
//
// Supported grammar (one command per line, '#' comments):
//   fv qdisc add dev DEV root handle H: (htb|prio) [rate RATE]
//   fv qdisc add dev DEV parent H:ID handle H2: (htb|prio) [bands N]
//       — qdisc chaining (§IV-A): attaches a child discipline under class
//         H:ID. "prio bands N" expands to N classes H2:0..H2:N-1 with
//         ascending strict priorities; "htb" just opens a new handle scope
//         whose classes nest under H:ID.
//   fv class add dev DEV parent H:[PID] classid H:ID
//        [rate RATE] [ceil RATE] [prio N] [weight W] [guarantee RATE] [name S]
//   fv filter add dev DEV [pref N] match [vf N] [proto tcp|udp]
//        [src A.B.C.D/L] [dst A.B.C.D/L] [sport N] [dport N] classid H:ID
//   fv borrow add dev DEV classid H:ID from H:ID[,H:ID...]
//
// RATE := <number>(bit|kbit|mbit|gbit)   e.g. 10gbit, 500mbit, 2.5gbit
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/classifier.h"
#include "core/sched_tree.h"

namespace flowvalve::core {

/// Parse "10gbit" style rate strings. Throws std::invalid_argument on
/// malformed input.
Rate parse_rate(std::string_view text);

/// Parse "A.B.C.D" dotted quad. Throws std::invalid_argument.
std::uint32_t parse_ipv4(std::string_view text);

class FvFrontend {
 public:
  /// `emc` is the classifier's flow-cache geometry (FlowValveEngine::Options
  /// carries it).
  explicit FvFrontend(FvParams params = {}, ExactMatchFlowCache::Options emc = {});

  /// Apply one fv command. Throws std::invalid_argument with a message
  /// pointing at the offending token on parse errors.
  void apply(std::string_view command);

  /// Apply a multi-line script (blank lines and '#' comments ignored).
  void apply_script(std::string_view script);

  /// Freeze the configuration: finalize the tree, intern one QoS label per
  /// leaf (hierarchy path + its borrowing list), and resolve filters.
  /// Returns a human-readable error or empty string on success.
  std::string finalize(sim::SimTime now = 0);

  SchedulingTree& tree() { return tree_; }
  const SchedulingTree& tree() const { return tree_; }
  LabelTable& labels() { return labels_; }
  const LabelTable& labels() const { return labels_; }
  Classifier& classifier() { return classifier_; }
  const Classifier& classifier() const { return classifier_; }

  /// Label id assigned to a leaf class (valid after finalize()).
  ClassLabelId label_of(ClassId leaf) const;
  ClassLabelId label_of(std::string_view class_name) const;

  /// Resolve "H:ID" notation to the internal ClassId (kNoClass if unknown).
  ClassId resolve_classid(std::string_view classid) const;

  bool finalized() const { return finalized_; }

 private:
  struct PendingFilter {
    FilterRule rule;
    std::string target_classid;
  };

  void cmd_qdisc(const std::vector<std::string>& tok);
  void cmd_class(const std::vector<std::string>& tok);
  void cmd_filter(const std::vector<std::string>& tok);
  void cmd_borrow(const std::vector<std::string>& tok);

  FvParams params_;
  SchedulingTree tree_;
  LabelTable labels_;
  Classifier classifier_;

  std::map<std::string, ClassId, std::less<>> classid_map_;  // "1:10" → id
  std::string default_classid_;                              // qdisc 'default'
  std::map<ClassId, std::vector<std::string>> borrow_specs_; // leaf → classids
  std::vector<PendingFilter> pending_filters_;
  std::map<ClassId, ClassLabelId> leaf_labels_;
  bool finalized_ = false;
};

}  // namespace flowvalve::core
