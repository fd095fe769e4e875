#include "core/classifier.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <new>

#include <sys/mman.h>

namespace flowvalve::core {

// ---------------------------------------------------------- LabelTable ----

ClassLabelId LabelTable::intern(QosLabel label) {
  labels_.push_back(std::move(label));
  return static_cast<ClassLabelId>(labels_.size() - 1);
}

// ---------------------------------------------------------- FilterRule ----

namespace {

bool prefix_match(std::uint32_t addr, std::uint32_t rule_addr, std::uint8_t len) {
  if (len == 0) return true;
  const std::uint32_t mask = len >= 32 ? 0xffffffffu : ~(0xffffffffu >> len);
  return (addr & mask) == (rule_addr & mask);
}

// The splitmix64 finalizer lives on ExactMatchFlowCache (classifier.h) so
// the distribution test can lock its avalanche property; member functions
// below reach it unqualified.
constexpr std::uint64_t kVfSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kLabelSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kEpochSalt = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kTagSalt = 0x27d4eb2f165667c5ULL;

}  // namespace

bool FilterRule::matches(std::uint16_t pkt_vf, const FiveTuple& t) const {
  if (vf_port && *vf_port != pkt_vf) return false;
  if (proto && *proto != t.proto) return false;
  if (!prefix_match(t.src_ip, src_ip, src_prefix_len)) return false;
  if (!prefix_match(t.dst_ip, dst_ip, dst_prefix_len)) return false;
  if (src_port && *src_port != t.src_port) return false;
  if (dst_port && *dst_port != t.dst_port) return false;
  return true;
}

// ------------------------------------------------- ExactMatchFlowCache ----

// A zero interval or budget would deadlock the state machine or the kick
// search, and a cap below the threshold would never degrade.
static_assert(ExactMatchFlowCache::kKickBudget >= 2);
static_assert(ExactMatchFlowCache::kMaxKickDepth >= 1);
static_assert(ExactMatchFlowCache::kDecayIntervalLookups >= 1);
static_assert(ExactMatchFlowCache::kRecoveryAdmitEvery >= 1);
static_assert(ExactMatchFlowCache::kDegradeThreshold >= 1);
static_assert(ExactMatchFlowCache::kRelapseThreshold >= 1);
static_assert(ExactMatchFlowCache::kFailureScoreCap >=
              ExactMatchFlowCache::kDegradeThreshold);

// The valid bits of a bucket fit one byte.
static_assert(ExactMatchFlowCache::kSlots <= 8);
constexpr unsigned kAllSlots = (1u << ExactMatchFlowCache::kSlots) - 1;

ExactMatchFlowCache::ExactMatchFlowCache(Options options)
    : idle_timeout_ticks_(options.idle_timeout_ticks) {
  // Capacity clamp: at least two buckets (cuckoo needs two distinct
  // candidates), rounded up to a power of two so the index masks hold for
  // any requested capacity, including 0 and non-multiples of kSlots.
  const std::size_t want_buckets =
      std::max<std::size_t>(1, (options.capacity + kSlots - 1) / kSlots);
  buckets_ = std::max<std::size_t>(2, std::bit_ceil(want_buckets));
  const std::size_t key_bytes = buckets_ * sizeof(KeyLine);
  const std::size_t cold_bytes = buckets_ * sizeof(ColdLines);
  const std::size_t bytes = key_bytes + cold_bytes + buckets_;
  void* const base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  mapping_ = std::unique_ptr<void, Unmap>(base, Unmap{bytes});
  // Advice only: where the kernel has no huge page to give, the table stays
  // on 4 KiB pages and behaves the same.
  if (capacity() >= kHugePageMinSlots) ::madvise(base, bytes, MADV_HUGEPAGE);
  // Page-aligned base; key lines and cold lines are whole multiples of 64.
  auto* const bytes_at = static_cast<std::byte*>(base);
  keys_ = reinterpret_cast<KeyLine*>(bytes_at);
  cold_ = reinterpret_cast<ColdLines*>(bytes_at + key_bytes);
  valid_ = {reinterpret_cast<std::uint8_t*>(bytes_at + key_bytes + cold_bytes), buckets_};
}

void ExactMatchFlowCache::Unmap::operator()(void* p) const noexcept {
  ::munmap(p, bytes);
}

ExactMatchFlowCache::Key ExactMatchFlowCache::make_key(std::uint16_t vf,
                                                       const FiveTuple& t) {
  return {.src_ip = t.src_ip,
          .dst_ip = t.dst_ip,
          .src_port = t.src_port,
          .dst_port = t.dst_port,
          .vf = vf,
          .proto = t.proto,
          .pad = 0};
}

std::uint64_t ExactMatchFlowCache::key_hash(const Key& k) const {
  const FiveTuple t{k.src_ip, k.dst_ip, k.src_port, k.dst_port, k.proto};
  return mix64(t.hash() ^ (kVfSalt * (static_cast<std::uint64_t>(k.vf) + 1)));
}

std::uint32_t ExactMatchFlowCache::bucket_of(std::uint64_t hash) const {
  return static_cast<std::uint32_t>(hash & (buckets_ - 1));
}

std::uint32_t ExactMatchFlowCache::alt_bucket_of(std::uint64_t hash,
                                                 std::uint32_t b1) const {
  std::uint32_t b2 = static_cast<std::uint32_t>((hash >> 32) & (buckets_ - 1));
  if (b2 == b1) b2 ^= 1;  // buckets_ >= 2 and a power of two, so b2 is valid
  return b2;
}

std::uint64_t ExactMatchFlowCache::entry_tag(std::uint64_t hash, ClassLabelId label,
                                             std::uint32_t epoch) const {
  return mix64(hash ^ (static_cast<std::uint64_t>(label) * kLabelSalt) ^
               (static_cast<std::uint64_t>(epoch) * kEpochSalt) ^ kTagSalt);
}

std::size_t ExactMatchFlowCache::find_slot(std::uint32_t bucket, const Key& k) const {
  const KeyLine& line = keys_[bucket];
  for (unsigned live = valid_[bucket]; live != 0; live &= live - 1) {
    const auto s = static_cast<std::size_t>(std::countr_zero(live));
    if (line.keys[s] == k) return std::size_t{bucket} * kSlots + s;
  }
  return kNoSlot;
}

std::size_t ExactMatchFlowCache::find_key(std::uint32_t b1, std::uint32_t b2,
                                          const Key& k) const {
  const std::size_t slot = find_slot(b1, k);
  return slot != kNoSlot ? slot : find_slot(b2, k);
}

void ExactMatchFlowCache::note_lookup() {
  ++lookup_serial_;
  if (failure_score_ > 0 && lookup_serial_ % kDecayIntervalLookups == 0)
    --failure_score_;
  switch (health_) {
    case Health::kHealthy:
      break;
    case Health::kDegraded:
      ++stats_.degraded_dwell_lookups;
      ++dwell_;
      if (dwell_ >= kMinDegradedDwell && failure_score_ == 0) {
        health_ = Health::kRecovering;
        dwell_ = 0;
        admit_counter_ = 0;
      }
      break;
    case Health::kRecovering:
      ++stats_.recovering_dwell_lookups;
      ++dwell_;
      if (dwell_ >= kRecoveryCleanLookups && failure_score_ == 0) {
        health_ = Health::kHealthy;
        dwell_ = 0;
      }
      break;
  }
}

void ExactMatchFlowCache::note_kick_failure() {
  ++stats_.kick_failures;
  // A failed kick search on a mostly-full table is ordinary capacity
  // pressure — the stalest-eviction fallback is the honest hardware
  // behavior and costs bounded work. A failed search while the table has
  // free space is pathological (adversarial same-bucket keys); only that
  // raises the pressure score that drives degradation.
  if (live_ * 8 >= capacity() * 7) return;
  failure_score_ = std::min(failure_score_ + 1, kFailureScoreCap);
  const bool degrade =
      (health_ == Health::kHealthy && failure_score_ >= kDegradeThreshold) ||
      (health_ == Health::kRecovering && failure_score_ >= kRelapseThreshold);
  if (degrade) {
    health_ = Health::kDegraded;
    ++stats_.degraded_transitions;
    dwell_ = 0;
  }
}

void ExactMatchFlowCache::sweep_idle(std::uint64_t now_tick) {
  if (idle_timeout_ticks_ == 0) return;
  const std::size_t bucket = sweep_cursor_++ & (buckets_ - 1);
  // An empty bucket costs one mask byte; only live slots' cold records are
  // read.
  for (unsigned live = valid_[bucket]; live != 0; live &= live - 1) {
    const std::size_t slot = bucket * kSlots + std::countr_zero(live);
    const std::uint64_t last_used = cold(slot).last_used;
    if (now_tick > last_used && now_tick - last_used > idle_timeout_ticks_) {
      invalidate(slot);
      ++stats_.idle_evictions;
    }
  }
}

std::optional<ClassLabelId> ExactMatchFlowCache::lookup(std::uint16_t vf,
                                                        const FiveTuple& t,
                                                        std::uint64_t now_tick,
                                                        std::uint32_t epoch) {
  const Key k = make_key(vf, t);
  const std::uint64_t h = key_hash(k);
  const std::uint32_t b1 = bucket_of(h);
  // A hit's cold record is addressed by the slot its key matched, so it
  // would cost a second trip to memory after the key line. Inserts take
  // the first free slot, b1 before b2, so most residents sit in b1's slots
  // 0 and 1: fetch that cold line alongside the key line.
  __builtin_prefetch(&cold_[b1]);
  std::size_t slot = find_key(b1, alt_bucket_of(h, b1), k);
  std::optional<ClassLabelId> label;
  if (slot != kNoSlot) {
    const Cold& c = cold(slot);
    if (c.epoch != epoch) {
      // Stale label epoch: a reconfiguration changed the label bindings
      // since this entry was cached. Invalidate just this entry and fall
      // through to the rule walk (lazy, per-flow re-classification).
      invalidate(slot);
      ++stats_.stale_invalidations;
      slot = kNoSlot;
    } else if (c.tag != entry_tag(h, c.label, c.epoch)) {
      // Integrity tag mismatch: the entry's state was corrupted (cache
      // poison fault). Detect, invalidate, and take the honest miss path
      // rather than serving a wrong label.
      invalidate(slot);
      ++stats_.corruption_detected;
      slot = kNoSlot;
    } else {
      label = c.label;
    }
  }
  if (label) {
    ++stats_.hits;
    // Refresh before sweeping: the sweep cursor may land on the hit's own
    // bucket, and a probe must never reclaim the entry it is returning.
    cold(slot).last_used = now_tick;
  } else {
    ++stats_.misses;
  }
  note_lookup();
  sweep_idle(now_tick);
  return label;
}

std::optional<ClassLabelId> ExactMatchFlowCache::peek(std::uint16_t vf,
                                                      const FiveTuple& t,
                                                      std::uint32_t epoch) const {
  const Key k = make_key(vf, t);
  const std::uint64_t h = key_hash(k);
  const std::uint32_t b1 = bucket_of(h);
  const std::size_t slot = find_key(b1, alt_bucket_of(h, b1), k);
  if (slot == kNoSlot) return std::nullopt;
  const Cold& c = cold(slot);
  if (c.epoch != epoch || c.tag != entry_tag(h, c.label, c.epoch)) return std::nullopt;
  return c.label;
}

std::size_t ExactMatchFlowCache::bfs_free_slot(std::uint32_t b1, std::uint32_t b2,
                                               std::uint32_t* kicks) {
  // Breadth-first search over buckets reachable by displacing residents,
  // bounded by kKickBudget expanded buckets and kMaxKickDepth chain
  // length. Nodes record how they were reached so the kick chain can be
  // replayed backwards once a free slot is found.
  struct Node {
    std::uint32_t bucket;
    std::int32_t parent;      // index into nodes, -1 for roots
    std::uint8_t slot;        // slot in parent bucket whose entry leads here
    std::uint8_t depth;
  };
  std::array<Node, kKickBudget> nodes{};
  std::size_t count = 0;
  nodes[count++] = {b1, -1, 0, 0};
  if (b2 != b1) nodes[count++] = {b2, -1, 0, 0};

  for (std::size_t head = 0; head < count; ++head) {
    const Node n = nodes[head];
    // A free slot in this bucket terminates the search: walk the chain
    // backwards, moving each predecessor's entry into the freed slot.
    if (const unsigned free = ~valid_[n.bucket] & kAllSlots; free != 0) {
      std::size_t freed = std::size_t{n.bucket} * kSlots + std::countr_zero(free);
      std::int32_t cur = static_cast<std::int32_t>(head);
      while (nodes[cur].parent >= 0) {
        const Node& link = nodes[cur];
        const std::uint32_t from_bucket = nodes[link.parent].bucket;
        const std::size_t from = std::size_t{from_bucket} * kSlots + link.slot;
        keys_[freed / kSlots].keys[freed % kSlots] = keys_[from_bucket].keys[link.slot];
        cold(freed) = cold(from);
        cold(freed).alt_bucket = from_bucket;
        valid_[freed / kSlots] |= static_cast<std::uint8_t>(1u << (freed % kSlots));
        valid_[from_bucket] &= static_cast<std::uint8_t>(~(1u << link.slot));
        freed = from;
        ++stats_.kicks;
        ++*kicks;
        cur = link.parent;
      }
      return freed;  // a now-free slot in b1 or b2
    }
    if (n.depth >= kMaxKickDepth) continue;
    for (std::size_t s = 0; s < kSlots && count < kKickBudget; ++s) {
      const std::uint32_t target = cold_[n.bucket].slots[s].alt_bucket;
      const auto reached = nodes.begin() + static_cast<std::ptrdiff_t>(count);
      if (std::any_of(nodes.begin(), reached,
                      [&](const Node& m) { return m.bucket == target; }))
        continue;
      nodes[count++] = {target, static_cast<std::int32_t>(head),
                        static_cast<std::uint8_t>(s),
                        static_cast<std::uint8_t>(n.depth + 1)};
    }
  }
  return kNoSlot;
}

ExactMatchFlowCache::InsertOutcome ExactMatchFlowCache::insert_at(
    std::uint32_t b1, std::uint32_t b2, std::uint64_t hash, const Key& k,
    ClassLabelId label, std::uint64_t now_tick, std::uint32_t epoch) {
  // Refresh an existing entry in place (not an insert; no admission gate).
  if (const std::size_t slot = find_key(b1, b2, k); slot != kNoSlot) {
    Cold& c = cold(slot);
    // A label or epoch change mutates a resident entry, which must advance
    // the mutation stamp (it promises to move on any relabel).
    if (c.label != label || c.epoch != epoch) ++stats_.insertions;
    c.label = label;
    c.epoch = epoch;
    c.last_used = now_tick;
    c.tag = entry_tag(hash, label, epoch);
    return {true, 0};
  }

  // Degraded-mode admission gate (DESIGN.md §14).
  if (health_ == Health::kDegraded) {
    ++stats_.suppressed_inserts;
    return {false, 0};
  }
  if (health_ == Health::kRecovering &&
      (admit_counter_++ % kRecoveryAdmitEvery) != 0) {
    ++stats_.suppressed_inserts;
    return {false, 0};
  }

  const auto place = [&](std::size_t slot, std::uint32_t kicks) -> InsertOutcome {
    const auto in_bucket = static_cast<std::uint32_t>(slot / kSlots);
    keys_[in_bucket].keys[slot % kSlots] = k;
    valid_[in_bucket] |= static_cast<std::uint8_t>(1u << (slot % kSlots));
    cold(slot) = {.last_used = now_tick,
                  .tag = entry_tag(hash, label, epoch),
                  .label = label,
                  .epoch = epoch,
                  .alt_bucket = in_bucket == b1 ? b2 : b1};
    ++live_;
    ++stats_.insertions;
    return {true, kicks};
  };

  // Direct free slot in either candidate bucket.
  for (std::uint32_t b : {b1, b2})
    if (const unsigned free = ~valid_[b] & kAllSlots; free != 0)
      return place(std::size_t{b} * kSlots + std::countr_zero(free), 0);

  // Bounded BFS kick path.
  std::uint32_t kicks = 0;
  if (const std::size_t freed = bfs_free_slot(b1, b2, &kicks); freed != kNoSlot)
    return place(freed, kicks);

  // Kick budget exhausted: evict the stalest resident of the two candidate
  // buckets (the hardware-honest bounded fallback) and record the failure —
  // repeated failures at low table load raise the degradation score.
  note_kick_failure();
  std::size_t victim = kNoSlot;
  for (std::uint32_t b : {b1, b2}) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      const std::size_t slot = std::size_t{b} * kSlots + s;
      if (victim == kNoSlot || cold(slot).last_used < cold(victim).last_used)
        victim = slot;
    }
  }
  if (health_ == Health::kDegraded) {
    // note_kick_failure() tripped the threshold on this very insert: the
    // gate closes now, including for this packet.
    ++stats_.suppressed_inserts;
    return {false, kicks};
  }
  ++stats_.evictions;
  --live_;
  return place(victim, kicks);
}

ExactMatchFlowCache::InsertOutcome ExactMatchFlowCache::insert(
    std::uint16_t vf, const FiveTuple& t, ClassLabelId label,
    std::uint64_t now_tick, std::uint32_t epoch) {
  const Key k = make_key(vf, t);
  const std::uint64_t h = key_hash(k);
  const std::uint32_t b1 = bucket_of(h);
  return insert_at(b1, alt_bucket_of(h, b1), h, k, label, now_tick, epoch);
}

void ExactMatchFlowCache::clear() {
  // Keys and cold records under a clear valid bit are never read.
  std::fill(valid_.begin(), valid_.end(), std::uint8_t{0});
  live_ = 0;
  stamp_base_ = mutation_stamp() + 1;
  stats_ = Stats{};
  health_ = Health::kHealthy;
  failure_score_ = 0;
  lookup_serial_ = 0;
  dwell_ = 0;
  admit_counter_ = 0;
  sweep_cursor_ = 0;
}

std::size_t ExactMatchFlowCache::invalidate_all() {
  std::size_t flushed = 0;
  for (std::uint8_t& mask : valid_) {
    flushed += static_cast<std::size_t>(std::popcount(mask));
    mask = 0;
  }
  live_ -= flushed;
  stats_.evictions += flushed;
  return flushed;
}

std::size_t ExactMatchFlowCache::poison(std::size_t stride, ClassLabelId label_count,
                                        bool fix_tag) {
  if (stride == 0 || label_count < 2) return 0;
  std::size_t seen = 0, poisoned = 0;
  for (std::size_t b = 0; b < buckets_; ++b) {
    for (unsigned live = valid_[b]; live != 0; live &= live - 1) {
      if (seen++ % stride != 0) continue;
      const auto s = static_cast<std::size_t>(std::countr_zero(live));
      Cold& c = cold_[b].slots[s];
      c.label = static_cast<ClassLabelId>((c.label + 1) % label_count);
      if (fix_tag) c.tag = entry_tag(key_hash(keys_[b].keys[s]), c.label, c.epoch);
      ++poisoned;
    }
  }
  return poisoned;
}

std::size_t ExactMatchFlowCache::fault_collision_storm(std::uint64_t seed,
                                                       std::size_t n,
                                                       std::uint64_t now_tick) {
  // All storm keys are pinned to one seed-chosen bucket pair, regardless of
  // their own hashes — the model of an attacker who found same-bucket
  // five-tuples. They still pass through the normal admission path, so the
  // degraded-mode gate sees (and eventually refuses) them.
  const std::uint64_t s = mix64(seed ^ kTagSalt);
  const std::uint32_t p = bucket_of(s);
  const std::uint32_t q = alt_bucket_of(s, p);
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = mix64(seed + (i + 1) * kVfSalt);
    FiveTuple t;
    t.src_ip = static_cast<std::uint32_t>(r >> 32);
    t.dst_ip = static_cast<std::uint32_t>(r);
    t.src_port = static_cast<std::uint16_t>(i);
    t.dst_port = static_cast<std::uint16_t>(i >> 16);
    t.proto = IpProto::kUdp;
    const Key k = make_key(kCollisionStormVf, t);
    admitted += insert_at(p, q, key_hash(k), k, /*label=*/0, now_tick, /*epoch=*/0)
                    .inserted;
  }
  return admitted;
}

std::size_t ExactMatchFlowCache::fault_churn_storm(std::uint64_t seed, std::size_t n,
                                                   std::uint64_t now_tick) {
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = mix64(seed + (i + 1) * kLabelSalt);
    FiveTuple t;
    t.src_ip = static_cast<std::uint32_t>(r >> 32);
    t.dst_ip = static_cast<std::uint32_t>(r);
    t.src_port = static_cast<std::uint16_t>(i);
    t.dst_port = static_cast<std::uint16_t>(i >> 16);
    t.proto = IpProto::kUdp;
    admitted +=
        insert(kChurnStormVf, t, /*label=*/0, now_tick, /*epoch=*/0).inserted;
  }
  return admitted;
}

std::array<std::uint64_t, ExactMatchFlowCache::kSlots + 1>
ExactMatchFlowCache::occupancy_histogram() const {
  // Eight masks per word: an all-zero word is eight empty buckets for one
  // compare, and any other word is counted in registers. Every mask is
  // still read, so the count never leans on live_.
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;  // 1 in each byte
  constexpr std::uint64_t kLow7 = 0x7F * kOnes;
  std::array<std::uint64_t, kSlots + 1> hist{};
  const std::uint8_t* masks = valid_.data();
  const std::size_t n = valid_.size();
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, masks + i, sizeof w);
    if (w == 0) {
      hist[0] += sizeof w;
      continue;
    }
    // Each byte's popcount in place, then per count the bytes holding it:
    // `zero` has bit 7 set in exactly the bytes of `y` that are zero, and
    // the multiply sums those bits into the top byte.
    w -= (w >> 1) & (0x55 * kOnes);
    w = (w & (0x33 * kOnes)) + ((w >> 2) & (0x33 * kOnes));
    w = (w + (w >> 4)) & (0x0F * kOnes);
    for (std::uint64_t k = 0; k <= kSlots; ++k) {
      const std::uint64_t y = w ^ (k * kOnes);
      const std::uint64_t zero = ~(((y & kLow7) + kLow7) | y) & ~kLow7;
      hist[k] += ((zero >> 7) * kOnes) >> 56;
    }
  }
  for (; i < n; ++i) ++hist[std::popcount(masks[i])];
  return hist;
}

const char* health_name(ExactMatchFlowCache::Health h) {
  switch (h) {
    case ExactMatchFlowCache::Health::kHealthy:
      return "healthy";
    case ExactMatchFlowCache::Health::kDegraded:
      return "degraded";
    case ExactMatchFlowCache::Health::kRecovering:
      return "recovering";
  }
  return "unknown";
}

// ---------------------------------------------------------- Classifier ----

Classifier::Classifier(ExactMatchFlowCache::Options cache_options)
    : cache_(cache_options) {}

void Classifier::add_rule(FilterRule rule) {
  rules_.push_back(std::move(rule));
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const FilterRule& a, const FilterRule& b) { return a.pref < b.pref; });
}

void Classifier::replace_rules(std::vector<FilterRule> rules) {
  rules_ = std::move(rules);
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const FilterRule& a, const FilterRule& b) { return a.pref < b.pref; });
}

ClassLabelId Classifier::rule_walk_label(std::uint16_t vf, const FiveTuple& t) const {
  for (const auto& rule : rules_)
    if (rule.matches(vf, t)) return rule.label;
  return default_label_;
}

Classifier::Result Classifier::classify(const net::Packet& pkt, std::uint64_t now_tick) {
  Result r;
  if (cache_enabled_) {
    if (auto hit = cache_.lookup(pkt.vf_port, pkt.tuple, now_tick, label_epoch_)) {
      r.label = *hit;
      r.cycles = kCacheHitCycles;
      r.cache_hit = true;
      return r;
    }
    r.cycles += kCacheMissCycles;
  }
  // Ordered rule walk (first match wins).
  std::uint32_t walked = 0;
  ClassLabelId matched = default_label_;
  for (const auto& rule : rules_) {
    ++walked;
    if (rule.matches(pkt.vf_port, pkt.tuple)) {
      matched = rule.label;
      break;
    }
  }
  r.cycles += walked * kPerRuleCycles;
  r.label = matched;
  if (cache_enabled_ && matched != net::kUnclassified) {
    const auto out =
        cache_.insert(pkt.vf_port, pkt.tuple, matched, now_tick, label_epoch_);
    if (out.inserted) {
      // A suppressed insert (degraded mode) charges nothing extra: the
      // packet already paid the honest miss + rule-walk cost.
      r.cycles += kCacheInsertCycles + out.kicks * kPerKickCycles;
    }
  }
  return r;
}

}  // namespace flowvalve::core
