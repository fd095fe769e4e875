// Unit tests for the fv command front end (paper §III-E).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/frontend.h"

namespace flowvalve::core {
namespace {

TEST(ParseRate, Units) {
  EXPECT_DOUBLE_EQ(parse_rate("10gbit").gbps(), 10.0);
  EXPECT_DOUBLE_EQ(parse_rate("2.5gbit").gbps(), 2.5);
  EXPECT_DOUBLE_EQ(parse_rate("500mbit").mbps(), 500.0);
  EXPECT_DOUBLE_EQ(parse_rate("8kbit").kbps(), 8.0);
  EXPECT_DOUBLE_EQ(parse_rate("64bit").bps(), 64.0);
  EXPECT_DOUBLE_EQ(parse_rate("100bps").bps(), 100.0);
}

TEST(ParseRate, CaseInsensitiveUnit) {
  EXPECT_DOUBLE_EQ(parse_rate("10Gbit").gbps(), 10.0);
  EXPECT_DOUBLE_EQ(parse_rate("10GBIT").gbps(), 10.0);
}

TEST(ParseRate, Errors) {
  EXPECT_THROW(parse_rate("gbit"), std::invalid_argument);
  EXPECT_THROW(parse_rate("10parsec"), std::invalid_argument);
  EXPECT_THROW(parse_rate("10"), std::invalid_argument);
}

TEST(ParseIpv4, DottedQuad) {
  EXPECT_EQ(parse_ipv4("10.0.0.1"), 0x0a000001u);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), 0xffffffffu);
  EXPECT_EQ(parse_ipv4("0.0.0.0"), 0u);
}

TEST(ParseIpv4, Errors) {
  EXPECT_THROW(parse_ipv4("10.0.0"), std::invalid_argument);
  EXPECT_THROW(parse_ipv4("10.0.0.256"), std::invalid_argument);
  EXPECT_THROW(parse_ipv4("a.b.c.d"), std::invalid_argument);
}

const char* kBasicScript = R"(
# root + two classes
fv qdisc add dev nic0 root handle 1: htb rate 10gbit
fv class add dev nic0 parent 1: classid 1:10 name gold weight 3
fv class add dev nic0 parent 1: classid 1:11 name silver weight 1
fv borrow add dev nic0 classid 1:10 from 1:11
fv filter add dev nic0 pref 10 vf 0 classid 1:10
fv filter add dev nic0 pref 20 vf 1 classid 1:11
)";

TEST(Frontend, BuildsTreeFromScript) {
  FvFrontend fe;
  fe.apply_script(kBasicScript);
  ASSERT_EQ(fe.finalize(), "");
  EXPECT_TRUE(fe.finalized());
  const SchedulingTree& tree = fe.tree();
  EXPECT_EQ(tree.size(), 3u);
  const ClassId gold = tree.find("gold");
  ASSERT_NE(gold, kNoClass);
  EXPECT_DOUBLE_EQ(tree.at(gold).policy.weight, 3.0);
  EXPECT_DOUBLE_EQ(tree.at(tree.root()).policy.ceil.gbps(), 10.0);
}

TEST(Frontend, ResolvesClassids) {
  FvFrontend fe;
  fe.apply_script(kBasicScript);
  ASSERT_EQ(fe.finalize(), "");
  EXPECT_EQ(fe.resolve_classid("1:10"), fe.tree().find("gold"));
  EXPECT_EQ(fe.resolve_classid("1:"), fe.tree().root());
  EXPECT_EQ(fe.resolve_classid("9:99"), kNoClass);
}

TEST(Frontend, AssignsLabelsToLeaves) {
  FvFrontend fe;
  fe.apply_script(kBasicScript);
  ASSERT_EQ(fe.finalize(), "");
  const auto gold_label = fe.label_of("gold");
  ASSERT_NE(gold_label, net::kUnclassified);
  const QosLabel& label = fe.labels().get(gold_label);
  ASSERT_EQ(label.path.size(), 2u);
  EXPECT_EQ(label.path.back(), fe.tree().find("gold"));
  // Borrow label resolved from "1:11".
  ASSERT_EQ(label.borrow.size(), 1u);
  EXPECT_EQ(label.borrow.front(), fe.tree().find("silver"));
}

TEST(Frontend, FiltersClassifyByVf) {
  FvFrontend fe;
  fe.apply_script(kBasicScript);
  ASSERT_EQ(fe.finalize(), "");
  net::Packet p;
  p.vf_port = 0;
  EXPECT_EQ(fe.classifier().classify(p, 1).label, fe.label_of("gold"));
  p.vf_port = 1;
  EXPECT_EQ(fe.classifier().classify(p, 2).label, fe.label_of("silver"));
}

TEST(Frontend, ClassOptionsParsed) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply(
      "fv class add dev nic0 parent 1: classid 1:10 name x prio 2 weight 4 "
      "ceil 5gbit guarantee 1gbit");
  ASSERT_EQ(fe.finalize(), "");
  const SchedClass& c = fe.tree().at(fe.tree().find("x"));
  EXPECT_EQ(c.policy.prio, 2);
  EXPECT_DOUBLE_EQ(c.policy.weight, 4.0);
  EXPECT_DOUBLE_EQ(c.policy.ceil.gbps(), 5.0);
  EXPECT_DOUBLE_EQ(c.policy.guarantee.gbps(), 1.0);
}

TEST(Frontend, HtbRateMapsToWeight) {
  // tc-HTB style: classes declared with `rate` get proportional weights.
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:10 name a rate 6gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:11 name b rate 3gbit");
  ASSERT_EQ(fe.finalize(), "");
  const double wa = fe.tree().at(fe.tree().find("a")).policy.weight;
  const double wb = fe.tree().at(fe.tree().find("b")).policy.weight;
  EXPECT_NEAR(wa / wb, 2.0, 1e-9);
}

TEST(Frontend, NestedHierarchy) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:1 name inner weight 1");
  fe.apply("fv class add dev nic0 parent 1:1 classid 1:10 name leaf weight 1");
  ASSERT_EQ(fe.finalize(), "");
  const QosLabel& label = fe.labels().get(fe.label_of("leaf"));
  EXPECT_EQ(label.path.size(), 3u);
}

TEST(Frontend, FilterWithTupleFields) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:10 name web weight 1");
  fe.apply(
      "fv filter add dev nic0 pref 1 proto tcp src 10.0.0.0/8 dport 80 classid 1:10");
  ASSERT_EQ(fe.finalize(), "");
  net::Packet p;
  p.tuple.src_ip = 0x0a112233;
  p.tuple.dst_port = 80;
  p.tuple.proto = net::IpProto::kTcp;
  EXPECT_EQ(fe.classifier().classify(p, 1).label, fe.label_of("web"));
  p.tuple.dst_port = 22;
  EXPECT_EQ(fe.classifier().classify(p, 2).label, net::kUnclassified);
}

TEST(Frontend, DefaultClassCatchesUnmatched) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit default 1:30");
  fe.apply("fv class add dev nic0 parent 1: classid 1:30 name besteffort weight 1");
  ASSERT_EQ(fe.finalize(), "");
  net::Packet p;
  p.vf_port = 9;
  EXPECT_EQ(fe.classifier().classify(p, 1).label, fe.label_of("besteffort"));
}

// ---- error handling --------------------------------------------------------

TEST(FrontendErrors, QdiscNeedsRate) {
  FvFrontend fe;
  EXPECT_THROW(fe.apply("fv qdisc add dev nic0 root handle 1: htb"),
               std::invalid_argument);
}

TEST(FrontendErrors, DuplicateRoot) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  EXPECT_THROW(fe.apply("fv qdisc add dev nic0 root handle 2: htb rate 1gbit"),
               std::invalid_argument);
}

TEST(FrontendErrors, UnknownParent) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  EXPECT_THROW(
      fe.apply("fv class add dev nic0 parent 9: classid 1:10 name x weight 1"),
      std::invalid_argument);
}

TEST(FrontendErrors, DuplicateClassid) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:10 name a weight 1");
  EXPECT_THROW(
      fe.apply("fv class add dev nic0 parent 1: classid 1:10 name b weight 1"),
      std::invalid_argument);
}

TEST(FrontendErrors, UnknownObject) {
  FvFrontend fe;
  EXPECT_THROW(fe.apply("fv zebra add dev nic0"), std::invalid_argument);
}

TEST(FrontendErrors, OnlyAddSupported) {
  FvFrontend fe;
  EXPECT_THROW(fe.apply("fv qdisc del dev nic0 root"), std::invalid_argument);
}

TEST(FrontendErrors, FilterToNonLeafReportedAtFinalize) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:1 name inner weight 1");
  fe.apply("fv class add dev nic0 parent 1:1 classid 1:10 name leaf weight 1");
  fe.apply("fv filter add dev nic0 pref 1 vf 0 classid 1:1");
  EXPECT_NE(fe.finalize().find("non-leaf"), std::string::npos);
}

TEST(FrontendErrors, BorrowUnknownLenderReportedAtFinalize) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:10 name a weight 1");
  fe.apply("fv borrow add dev nic0 classid 1:10 from 1:99");
  EXPECT_NE(fe.finalize().find("unknown classid"), std::string::npos);
}

TEST(FrontendErrors, NoRoot) {
  FvFrontend fe;
  EXPECT_NE(fe.finalize().find("no root"), std::string::npos);
}

/// The error `command` raises on a frontend holding one class 1:10, or ""
/// when it applies.
std::string apply_error(const std::string& command) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:10 name a weight 1");
  try {
    fe.apply(command);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FrontendErrors, IntegerFieldsRejectValuesPastTheirWidth) {
  // Each field takes its maximum and refuses the next value up, naming the
  // field. A cast to the field's type would wrap it instead: `prio 256`
  // would read as prio 0, and `src 10.0.0.1/256` as a /0 that matches
  // every source.
  struct Case {
    std::string field, max, over, command;  // command ends before the value
  };
  const std::string filter = "fv filter add dev nic0 classid 1:10 ";
  for (const Case& c : {
           Case{"prio", "255", "256",
                "fv class add dev nic0 parent 1: classid 1:11 name b prio "},
           Case{"vf", "65535", "65536", filter + "vf "},
           Case{"sport", "65535", "65536", filter + "sport "},
           Case{"dport", "65535", "65536", filter + "dport "},
           Case{"pref", "4294967295", "4294967296", filter + "pref "},
           Case{"prefix len", "32", "33", filter + "src 10.0.0.1/"},
           Case{"prefix len", "32", "256", filter + "dst 10.0.0.1/"},
           Case{"bands", "16", "17", "fv qdisc add dev nic0 parent 1:10 handle 2: prio bands "},
       }) {
    SCOPED_TRACE(c.command);
    EXPECT_EQ(apply_error(c.command + c.max), "");
    EXPECT_NE(apply_error(c.command + c.over).find(c.field + " '" + c.over + "'"),
              std::string::npos)
        << apply_error(c.command + c.over);
  }
  // The maximum lands in the field as written.
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  fe.apply("fv class add dev nic0 parent 1: classid 1:10 name a prio 255");
  ASSERT_EQ(fe.finalize(), "");
  EXPECT_EQ(fe.tree().at(fe.tree().find("a")).policy.prio, 255);
}

TEST(FrontendErrors, NonFiniteWeightsFailNamingTheField) {
  // from_chars reads all three. A NaN weight would pass a `<= 0` check and
  // make every sibling's θ NaN; an infinite one would starve its siblings.
  const std::string command = "fv class add dev nic0 parent 1: classid 1:11 name b weight ";
  for (const std::string weight : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(weight);
    EXPECT_NE(apply_error(command + weight).find("weight '" + weight + "'"),
              std::string::npos)
        << apply_error(command + weight);
  }
  EXPECT_EQ(apply_error(command + "2.5"), "");
}

}  // namespace
}  // namespace flowvalve::core

namespace flowvalve::core {
namespace {

// ---- qdisc chaining (§IV-A) -------------------------------------------------

TEST(FrontendChaining, PrioQdiscExpandsToBands) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: prio bands 3 rate 10gbit");
  ASSERT_EQ(fe.finalize(), "");
  // Three leaf bands with ascending priorities under the root.
  for (unsigned b = 0; b < 3; ++b) {
    const ClassId id = fe.resolve_classid("1:" + std::to_string(b));
    ASSERT_NE(id, kNoClass) << b;
    EXPECT_EQ(fe.tree().at(id).policy.prio, b);
    EXPECT_TRUE(fe.tree().at(id).is_leaf());
  }
}

TEST(FrontendChaining, HtbUnderPrioBand) {
  // The paper's Fig. 3 style stack: PRIO root, HTB chained under band 1.
  FvFrontend fe;
  fe.apply_script(R"(
    fv qdisc add dev nic0 root handle 1: prio bands 2 rate 10gbit
    fv qdisc add dev nic0 parent 1:1 handle 2: htb
    fv class add dev nic0 parent 2: classid 2:10 name vm1 weight 2
    fv class add dev nic0 parent 2: classid 2:11 name vm2 weight 1
    fv filter add dev nic0 pref 1 vf 0 classid 1:0
    fv filter add dev nic0 pref 2 vf 1 classid 2:10
    fv filter add dev nic0 pref 3 vf 2 classid 2:11
  )");
  ASSERT_EQ(fe.finalize(), "");
  // vm1 nests under band 1: path root → band1 → vm1.
  const auto& label = fe.labels().get(fe.label_of("vm1"));
  ASSERT_EQ(label.path.size(), 3u);
  EXPECT_EQ(label.path[1], fe.resolve_classid("1:1"));
  // Band 0 is a prio-0 leaf preempting the HTB subtree.
  const ClassId band0 = fe.resolve_classid("1:0");
  EXPECT_LT(fe.tree().at(band0).policy.prio,
            fe.tree().at(fe.resolve_classid("1:1")).policy.prio);
}

TEST(FrontendChaining, DuplicateHandleRejected) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  EXPECT_THROW(
      fe.apply("fv qdisc add dev nic0 parent 1: handle 1: htb"),
      std::invalid_argument);
}

TEST(FrontendChaining, UnknownParentRejected) {
  FvFrontend fe;
  fe.apply("fv qdisc add dev nic0 root handle 1: htb rate 10gbit");
  EXPECT_THROW(fe.apply("fv qdisc add dev nic0 parent 9:9 handle 2: htb"),
               std::invalid_argument);
}

}  // namespace
}  // namespace flowvalve::core
