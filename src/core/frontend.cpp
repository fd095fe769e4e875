#include "core/frontend.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace flowvalve::core {
namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (std::isspace(static_cast<unsigned char>(ch))) {
      if (!cur.empty()) out.push_back(std::move(cur)), cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

// The largest value each integer field holds; parse_uint refuses anything
// above it rather than let the cast to the field's type truncate it.
constexpr std::uint64_t kMaxPrio = std::numeric_limits<PrioLevel>::max();
constexpr std::uint64_t kMaxU16 = std::numeric_limits<std::uint16_t>::max();  // vf, ports
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();  // pref
constexpr std::uint64_t kMaxPrioBands = 16;  // tc's TCQ_PRIO_BANDS

[[noreturn]] void fail(const std::string& msg) { throw std::invalid_argument("fv: " + msg); }

/// `s` as a finite decimal number. from_chars also reads `nan`, `inf` and
/// `-inf`, which no field can use.
double parse_number(std::string_view s, std::string_view what) {
  double v = 0.0;
  const auto* end = s.data() + s.size();
  auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end || !std::isfinite(v))
    fail("bad " + std::string(what) + " '" + std::string(s) + "'");
  return v;
}

/// `s` as a decimal integer in [0, max].
std::uint64_t parse_uint(std::string_view s, std::string_view what, std::uint64_t max) {
  std::uint64_t v = 0;
  const auto* end = s.data() + s.size();
  auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end)
    fail("bad " + std::string(what) + " '" + std::string(s) + "'");
  if (v > max)
    fail(std::string(what) + " '" + std::string(s) + "' is out of range (max " +
         std::to_string(max) + ")");
  return v;
}

}  // namespace

Rate parse_rate(std::string_view text) {
  std::size_t unit_pos = 0;
  while (unit_pos < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[unit_pos])) || text[unit_pos] == '.'))
    ++unit_pos;
  if (unit_pos == 0) fail("rate '" + std::string(text) + "' has no number");
  const double v = parse_number(text.substr(0, unit_pos), "rate");
  std::string unit(text.substr(unit_pos));
  std::transform(unit.begin(), unit.end(), unit.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (unit == "bit" || unit == "bps") return Rate::bits_per_sec(v);
  if (unit == "kbit") return Rate::kilobits_per_sec(v);
  if (unit == "mbit") return Rate::megabits_per_sec(v);
  if (unit == "gbit") return Rate::gigabits_per_sec(v);
  fail("unknown rate unit '" + unit + "'");
}

std::uint32_t parse_ipv4(std::string_view text) {
  std::uint32_t out = 0;
  std::size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    std::size_t dot = text.find('.', pos);
    std::string_view part =
        octet < 3 ? text.substr(pos, dot - pos) : text.substr(pos);
    if (octet < 3 && dot == std::string_view::npos) fail("bad ip '" + std::string(text) + "'");
    out = out << 8 | static_cast<std::uint32_t>(parse_uint(part, "ip octet", 255));
    pos = dot + 1;
  }
  return out;
}

FvFrontend::FvFrontend(FvParams params, ExactMatchFlowCache::Options emc)
    : params_(params), tree_(params), classifier_(emc) {}

void FvFrontend::apply(std::string_view command) {
  auto tok = tokenize(command);
  if (tok.empty()) return;
  std::size_t i = 0;
  if (tok[0] == "fv") ++i;
  if (i >= tok.size()) fail("empty command");
  const std::string& object = tok[i];
  if (i + 1 >= tok.size() || tok[i + 1] != "add")
    fail("only 'add' commands are supported (got '" + object + " ...')");
  if (object == "qdisc") {
    cmd_qdisc(tok);
  } else if (object == "class") {
    cmd_class(tok);
  } else if (object == "filter") {
    cmd_filter(tok);
  } else if (object == "borrow") {
    cmd_borrow(tok);
  } else {
    fail("unknown object '" + object + "'");
  }
  finalized_ = false;
}

void FvFrontend::apply_script(std::string_view script) {
  std::size_t pos = 0;
  while (pos <= script.size()) {
    std::size_t nl = script.find('\n', pos);
    std::string_view line =
        script.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    if (auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    if (!line.empty() && line.find_first_not_of(" \t\r") != std::string_view::npos)
      apply(line);
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
}

void FvFrontend::cmd_qdisc(const std::vector<std::string>& tok) {
  std::string handle = "1:";
  std::string parent_id;
  std::string kind = "htb";
  Rate rate = Rate::gigabits_per_sec(10);
  bool have_rate = false;
  unsigned bands = 3;
  for (std::size_t i = 0; i + 1 < tok.size(); ++i) {
    if (tok[i] == "handle") handle = tok[i + 1];
    if (tok[i] == "parent") parent_id = tok[i + 1];
    if (tok[i] == "rate") {
      rate = parse_rate(tok[i + 1]);
      have_rate = true;
    }
    if (tok[i] == "bands")
      bands = static_cast<unsigned>(parse_uint(tok[i + 1], "bands", kMaxPrioBands));
    if (tok[i] == "default") default_classid_ = tok[i + 1];
    if (tok[i + 1] == "htb" || tok[i + 1] == "prio") kind = tok[i + 1];
  }
  if (!handle.empty() && handle.back() != ':') fail("handle must end with ':'");
  if (classid_map_.count(handle)) fail("duplicate qdisc handle '" + handle + "'");

  if (parent_id.empty()) {
    // Root qdisc.
    if (tree_.size() != 0) fail("root qdisc already declared");
    if (!have_rate) fail("root qdisc needs an explicit 'rate' (the link rate)");
    const ClassId root = tree_.add_root("root", rate);
    classid_map_[handle] = root;
    classid_map_[handle + "0"] = root;
  } else {
    // Chained qdisc: the new handle scopes classes under an existing class.
    auto pit = classid_map_.find(parent_id);
    if (pit == classid_map_.end()) fail("qdisc parent '" + parent_id + "' unknown");
    classid_map_[handle] = pit->second;
    classid_map_[handle + "0"] = pit->second;
  }

  if (kind == "prio") {
    // PRIO expands to one class per band with ascending strict priorities.
    const ClassId attach = classid_map_[handle];
    for (unsigned b = 0; b < bands; ++b) {
      NodePolicy pol;
      pol.prio = static_cast<PrioLevel>(b);
      const std::string classid = handle + std::to_string(b);
      if (b == 0 && classid_map_.count(classid)) {
        // handle+"0" aliases the attach point for htb; for prio it must be
        // the band class — rebind it.
        classid_map_.erase(classid);
      }
      const ClassId id =
          tree_.add_class("band" + std::to_string(b) + "@" + handle, attach, pol);
      classid_map_[classid] = id;
    }
  }
}

void FvFrontend::cmd_class(const std::vector<std::string>& tok) {
  std::string parent_id, classid, name;
  NodePolicy pol;
  bool have_rate = false;
  Rate rate = Rate::zero();
  // Scan generically: options may appear anywhere after "add".
  for (std::size_t i = 0; i + 1 < tok.size(); ++i) {
    const std::string& k = tok[i];
    const std::string& v = tok[i + 1];
    if (k == "parent") parent_id = v;
    else if (k == "classid") classid = v;
    else if (k == "rate") { rate = parse_rate(v); have_rate = true; }
    else if (k == "ceil") pol.ceil = parse_rate(v);
    else if (k == "guarantee") pol.guarantee = parse_rate(v);
    else if (k == "prio") pol.prio = static_cast<PrioLevel>(parse_uint(v, "prio", kMaxPrio));
    else if (k == "weight") pol.weight = parse_number(v, "weight");
    else if (k == "name") name = v;
  }
  if (parent_id.empty() || classid.empty()) fail("class needs 'parent' and 'classid'");
  auto pit = classid_map_.find(parent_id);
  if (pit == classid_map_.end()) fail("unknown parent '" + parent_id + "'");
  if (classid_map_.count(classid)) fail("duplicate classid '" + classid + "'");
  // `rate` in tc-HTB terms is the committed rate; we map it onto the weight
  // if no explicit weight was given (proportional shares), and onto the
  // guarantee when 'guarantee' was not given but prio > 0 semantics need it.
  if (have_rate && pol.weight == 1.0) pol.weight = std::max(rate.mbps(), 1e-3);
  if (name.empty()) name = classid;
  const ClassId id = tree_.add_class(name, pit->second, pol);
  classid_map_[classid] = id;
}

void FvFrontend::cmd_filter(const std::vector<std::string>& tok) {
  PendingFilter pf;
  for (std::size_t i = 0; i + 1 < tok.size(); ++i) {
    const std::string& k = tok[i];
    const std::string& v = tok[i + 1];
    if (k == "pref") pf.rule.pref = static_cast<std::uint32_t>(parse_uint(v, "pref", kMaxU32));
    else if (k == "vf") pf.rule.vf_port = static_cast<std::uint16_t>(parse_uint(v, "vf", kMaxU16));
    else if (k == "proto") {
      if (v == "tcp") pf.rule.proto = net::IpProto::kTcp;
      else if (v == "udp") pf.rule.proto = net::IpProto::kUdp;
      else fail("unknown proto '" + v + "'");
    } else if (k == "src" || k == "dst") {
      std::string_view spec = v;
      std::uint8_t len = 32;
      if (auto slash = spec.find('/'); slash != std::string_view::npos) {
        len = static_cast<std::uint8_t>(parse_uint(spec.substr(slash + 1), "prefix len", 32));
        spec = spec.substr(0, slash);
      }
      const std::uint32_t addr = parse_ipv4(spec);
      if (k == "src") { pf.rule.src_ip = addr; pf.rule.src_prefix_len = len; }
      else { pf.rule.dst_ip = addr; pf.rule.dst_prefix_len = len; }
    } else if (k == "sport") {
      pf.rule.src_port = static_cast<std::uint16_t>(parse_uint(v, "sport", kMaxU16));
    } else if (k == "dport") {
      pf.rule.dst_port = static_cast<std::uint16_t>(parse_uint(v, "dport", kMaxU16));
    } else if (k == "classid") {
      pf.target_classid = v;
    }
  }
  if (pf.target_classid.empty()) fail("filter needs 'classid'");
  pf.rule.name = "filter->" + pf.target_classid;
  pending_filters_.push_back(std::move(pf));
}

void FvFrontend::cmd_borrow(const std::vector<std::string>& tok) {
  std::string classid, from;
  for (std::size_t i = 0; i + 1 < tok.size(); ++i) {
    if (tok[i] == "classid") classid = tok[i + 1];
    if (tok[i] == "from") from = tok[i + 1];
  }
  if (classid.empty() || from.empty()) fail("borrow needs 'classid' and 'from'");
  auto it = classid_map_.find(classid);
  if (it == classid_map_.end()) fail("unknown classid '" + classid + "'");
  auto& spec = borrow_specs_[it->second];
  std::size_t pos = 0;
  while (pos <= from.size()) {
    std::size_t comma = from.find(',', pos);
    spec.push_back(from.substr(pos, comma == std::string::npos ? std::string::npos
                                                               : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
}

ClassId FvFrontend::resolve_classid(std::string_view classid) const {
  auto it = classid_map_.find(classid);
  return it == classid_map_.end() ? kNoClass : it->second;
}

std::string FvFrontend::finalize(sim::SimTime now) {
  if (tree_.size() == 0) return "no root qdisc declared";
  if (auto err = tree_.validate(); !err.empty()) return err;
  tree_.finalize(now);

  // One label per leaf: hierarchy path + resolved borrowing list.
  leaf_labels_.clear();
  for (ClassId id = 0; id < tree_.size(); ++id) {
    const SchedClass& c = tree_.at(id);
    if (!c.is_leaf() || c.is_root()) continue;
    std::vector<ClassId> borrow;
    if (auto it = borrow_specs_.find(id); it != borrow_specs_.end()) {
      for (const std::string& spec : it->second) {
        const ClassId lender = resolve_classid(spec);
        if (lender == kNoClass) return "borrow: unknown classid '" + spec + "'";
        borrow.push_back(lender);
      }
    }
    leaf_labels_[id] = labels_.intern(tree_.label_for(id, std::move(borrow)));
  }

  // Resolve filters now that labels exist.
  for (auto& pf : pending_filters_) {
    const ClassId target = resolve_classid(pf.target_classid);
    if (target == kNoClass) return "filter: unknown classid '" + pf.target_classid + "'";
    auto lit = leaf_labels_.find(target);
    if (lit == leaf_labels_.end())
      return "filter targets non-leaf class '" + pf.target_classid + "'";
    FilterRule rule = pf.rule;
    rule.label = lit->second;
    classifier_.add_rule(std::move(rule));
  }

  if (!default_classid_.empty()) {
    const ClassId def = resolve_classid(default_classid_);
    if (def == kNoClass) return "qdisc default: unknown classid '" + default_classid_ + "'";
    auto lit = leaf_labels_.find(def);
    if (lit == leaf_labels_.end())
      return "qdisc default targets non-leaf class '" + default_classid_ + "'";
    classifier_.set_default_label(lit->second);
  }
  finalized_ = true;
  return {};
}

ClassLabelId FvFrontend::label_of(ClassId leaf) const {
  auto it = leaf_labels_.find(leaf);
  return it == leaf_labels_.end() ? net::kUnclassified : it->second;
}

ClassLabelId FvFrontend::label_of(std::string_view class_name) const {
  const ClassId id = tree_.find(class_name);
  return id == kNoClass ? net::kUnclassified : label_of(id);
}

}  // namespace flowvalve::core
