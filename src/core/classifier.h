// The labeling function (paper Fig. 5): filter rules, the exact-match flow
// cache (modeling Netronome's EMC with its dedicated lookup engines,
// Observation 2), and the label table mapping match results to QoS labels.
//
// The flow cache is a bucketized cuckoo hash table (DESIGN.md §14) sized
// for millions of concurrent (vf, five-tuple) keys: two bucket candidates
// derived from one splitmix64-mixed 64-bit hash, 4-slot buckets, a
// bounded-length BFS kick path on insert (never an unbounded loop on the
// data path), idle-entry eviction amortized into lookups, and an explicit
// degraded mode — under a collision storm the cache stops admitting
// inserts, classification falls back to the honest rule-walk cost, and
// admission resumes gradually (hysteresis, no flush) once pressure clears.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/sched_tree.h"
#include "net/packet.h"

namespace flowvalve::core {

using net::ClassLabelId;
using net::FiveTuple;
using net::IpProto;

/// Interns QoS labels; packets carry only the small id.
class LabelTable {
 public:
  ClassLabelId intern(QosLabel label);
  const QosLabel& get(ClassLabelId id) const { return labels_[id]; }
  std::size_t size() const { return labels_.size(); }

 private:
  std::vector<QosLabel> labels_;
};

/// A tc-style filter rule. Unset optionals are wildcards; ip prefixes use
/// mask lengths. Rules are evaluated in ascending `pref` order (first match
/// wins), mirroring `tc filter ... pref N`.
struct FilterRule {
  std::uint32_t pref = 100;

  std::optional<std::uint16_t> vf_port;
  std::optional<IpProto> proto;
  std::uint32_t src_ip = 0;
  std::uint8_t src_prefix_len = 0;  // 0 = any
  std::uint32_t dst_ip = 0;
  std::uint8_t dst_prefix_len = 0;  // 0 = any
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;

  ClassLabelId label = net::kUnclassified;  // assigned label on match
  std::string name;                         // for diagnostics

  bool matches(std::uint16_t pkt_vf, const FiveTuple& t) const;
};

/// Exact-match flow cache: (vf, five-tuple) → label. Bucketized cuckoo hash
/// table: every key has exactly two candidate buckets of kSlots entries
/// each; inserts displace residents along a BFS-discovered kick path of
/// bounded length, falling back to a stalest-entry eviction when no path
/// exists within the budget.
class ExactMatchFlowCache {
 public:
  static constexpr std::size_t kSlots = 4;  // entries per bucket

  /// VF ids reserved for fault-injected synthetic keys; real traffic never
  /// carries them, so storm entries can never alias a live flow's label.
  static constexpr std::uint16_t kCollisionStormVf = 0xFFFF;
  static constexpr std::uint16_t kChurnStormVf = 0xFFFE;

  /// splitmix64 finalizer behind every hash in the table (bucket indices
  /// and integrity tags): full avalanche, so every output bit depends on
  /// every key bit. The old `hash ^ vf * 0x9e37` mix barely perturbed the
  /// high half and aliased VFs into the same sets; public so the
  /// distribution test can lock the avalanche property directly.
  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  struct Options {
    /// Requested capacity in entries. Clamped in the constructor: at least
    /// two buckets (a cuckoo table needs two distinct candidates), rounded
    /// up to a power-of-two bucket count so the index masks are valid for
    /// any value — zero and non-multiples of kSlots are safe.
    std::size_t capacity = 64 * 1024;
    /// Evict entries not touched for this many ticks, amortized into
    /// lookups (one extra bucket swept per probe). 0 disables idle
    /// eviction, preserving pure-LRU pressure eviction.
    std::uint64_t idle_timeout_ticks = 0;
  };

  /// BFS kick search: at most this many buckets expanded per insert, and no
  /// kick chain longer than kMaxKickDepth displacements.
  static constexpr std::uint32_t kKickBudget = 64;
  static constexpr std::uint32_t kMaxKickDepth = 4;
  /// Degraded-mode state machine (all thresholds in lookups, so the machine
  /// is deterministic for a deterministic packet sequence).
  static constexpr std::uint32_t kDegradeThreshold = 16;  // failure score → kDegraded
  static constexpr std::uint32_t kRelapseThreshold = 4;   // score while kRecovering → back
  static constexpr std::uint32_t kFailureScoreCap = 64;
  static constexpr std::uint32_t kDecayIntervalLookups = 64;    // score -1 per interval
  static constexpr std::uint32_t kMinDegradedDwell = 1024;      // lookups before recovery
  static constexpr std::uint32_t kRecoveryAdmitEvery = 8;       // admit 1-in-N inserts
  static constexpr std::uint32_t kRecoveryCleanLookups = 1024;  // quiet lookups → healthy
  /// Tables of at least this many slots (about 48 MiB) ask the kernel for
  /// 2 MiB pages: a million-flow table is primed densely, so 4 KiB pages
  /// would cost a page fault per 4 KiB on priming and leave the table far
  /// past the TLB's reach. Smaller tables are mostly sparse, and a huge
  /// page would zero-fill 2 MiB per touched region, so they keep 4 KiB
  /// pages, backed only where written.
  static constexpr std::size_t kHugePageMinSlots = std::size_t{1} << 20;

  /// Insert-admission health (DESIGN.md §14). kDegraded suppresses all new
  /// inserts; kRecovering admits 1-in-kRecoveryAdmitEvery. Lookups always
  /// proceed. Transitions are driven by the lookup stream, so a cache that
  /// stops seeing misses still heals.
  enum class Health : std::uint8_t { kHealthy, kDegraded, kRecovering };

  explicit ExactMatchFlowCache(std::size_t capacity = 64 * 1024)
      : ExactMatchFlowCache(Options{.capacity = capacity}) {}
  explicit ExactMatchFlowCache(Options options);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /// Entries lazily invalidated because their label epoch was stale — a
    /// live reconfiguration moved the label space from under them (no full
    /// flush, stale hits re-classify instead).
    std::uint64_t stale_invalidations = 0;
    /// Idle entries reclaimed by the amortized lookup-time sweep.
    std::uint64_t idle_evictions = 0;
    /// Cuckoo displacements performed (one per entry moved on a kick path).
    std::uint64_t kicks = 0;
    /// Inserts whose BFS found no kick path within budget (fell back to
    /// stalest-entry eviction, or were the trigger for degradation).
    std::uint64_t kick_failures = 0;
    /// Hits rejected because the entry's integrity tag did not match its
    /// (key, label, epoch) — poisoned state detected and invalidated.
    std::uint64_t corruption_detected = 0;
    /// Inserts refused by the degraded/recovering admission gate.
    std::uint64_t suppressed_inserts = 0;
    /// Times the cache entered kDegraded.
    std::uint64_t degraded_transitions = 0;
    /// Lookups served while degraded / while recovering (dwell counters —
    /// deterministic for a deterministic run, and exported via obs).
    std::uint64_t degraded_dwell_lookups = 0;
    std::uint64_t recovering_dwell_lookups = 0;
    double hit_rate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// `epoch` is the current label epoch: a tuple match carrying a different
  /// epoch tag is invalidated in place and reported as a miss, so one stale
  /// entry costs one re-classification instead of a full cache flush.
  std::optional<ClassLabelId> lookup(std::uint16_t vf, const FiveTuple& t,
                                     std::uint64_t now_tick, std::uint32_t epoch = 0);

  /// Outcome of an insert attempt: whether the entry is now resident, and
  /// how many cuckoo displacements the kick path performed (0 on a direct
  /// slot, a refresh, or a suppressed insert).
  struct InsertOutcome {
    bool inserted = false;
    std::uint32_t kicks = 0;
  };
  InsertOutcome insert(std::uint16_t vf, const FiveTuple& t, ClassLabelId label,
                       std::uint64_t now_tick, std::uint32_t epoch = 0);
  void clear();

  /// Observational probe: is (vf, t) resident under `epoch` right now?
  /// Touches no stats and mutates nothing — for checkers and tests.
  std::optional<ClassLabelId> peek(std::uint16_t vf, const FiveTuple& t,
                                   std::uint32_t epoch = 0) const;

  /// Fault injection: drop every valid entry (an eviction storm). Unlike
  /// clear(), running stats survive and the flushed entries count as
  /// evictions. Returns the number of entries flushed.
  std::size_t invalidate_all();

  /// Fault injection: corrupt the label of every `stride`-th valid entry to
  /// (label + 1) % label_count — a deterministic model of EMC state
  /// corruption. By default the integrity tag is left stale, so the next
  /// lookup detects the corruption, invalidates the entry, and re-walks the
  /// rules (counted in corruption_detected). With fix_tag the tag is
  /// recomputed — silent corruption that serves the wrong class until the
  /// entry is evicted or flushed (used to validate the coherence checker).
  std::size_t poison(std::size_t stride, ClassLabelId label_count,
                     bool fix_tag = false);

  /// Fault injection, kHashCollisionStorm: force `n` synthetic keys
  /// (vf = kCollisionStormVf, tuples derived from `seed`) through the
  /// normal admission path but pinned to one seed-chosen bucket pair —
  /// adversarial same-bucket pressure that exhausts the kick budget while
  /// the table is mostly empty. Returns the number actually admitted.
  std::size_t fault_collision_storm(std::uint64_t seed, std::size_t n,
                                    std::uint64_t now_tick);

  /// Fault injection, kChurnStorm: force `n` synthetic uniformly-hashed
  /// keys (vf = kChurnStormVf) through the normal admission path — a flow
  /// arrival-rate spike that churns occupancy everywhere. Returns the
  /// number actually admitted.
  std::size_t fault_churn_storm(std::uint64_t seed, std::size_t n,
                                std::uint64_t now_tick);

  const Stats& stats() const { return stats_; }
  Health health() const { return health_; }
  /// Current insert-failure pressure score (decays with lookups).
  std::uint32_t failure_score() const { return failure_score_; }
  /// Live entries currently resident.
  std::size_t size() const { return live_; }
  /// Total entry slots (buckets × kSlots) after constructor clamping.
  std::size_t capacity() const { return buckets_ * kSlots; }
  std::size_t bucket_count() const { return buckets_; }

  /// Monotonic counter that changes whenever any resident entry could have
  /// been added, removed, or relabeled — the coherence audit's skip: an
  /// unchanged stamp means the table's valid bits have not moved since it
  /// was last read. It keeps rising across clear(), which zeroes the stats
  /// it sums.
  std::uint64_t mutation_stamp() const {
    return stamp_base_ + stats_.insertions + stats_.evictions +
           stats_.stale_invalidations + stats_.idle_evictions +
           stats_.corruption_detected;
  }

  /// Buckets by live-slot count (index 0..kSlots) — the per-set occupancy
  /// distribution exported via obs. Reads only the one-byte-per-bucket
  /// valid masks (O(bucket_count), no entry is touched); for snapshots and
  /// the coherence audit, not the data path.
  std::array<std::uint64_t, kSlots + 1> occupancy_histogram() const;

 private:
  // Storage is split by what each path reads (DESIGN.md §14); slot i lives
  // in bucket i / kSlots at position i % kSlots of all three arrays:
  //  - keys_: a bucket's four keys on one 64-byte line, all a probe
  //    compares;
  //  - valid_: one byte of valid bits per bucket, an array of its own so
  //    occupancy counts and flushes read nothing else;
  //  - cold_: label, epoch, alt bucket, last use and tag, 32 bytes per slot
  //    on two lines per bucket, read only after a key match or by an
  //    insert, kick, sweep or eviction.
  // No hash is stored: every resident's hash is key_hash() of its key
  // (collision-storm keys included; their pinned bucket pair is their
  // alt_bucket), so a key match is a hash match.

  /// (vf, five-tuple) in 16 bytes with no implicit padding; make_key()
  /// sets `pad` to zero.
  struct Key {
    std::uint32_t src_ip;
    std::uint32_t dst_ip;
    std::uint16_t src_port;
    std::uint16_t dst_port;
    std::uint16_t vf;
    IpProto proto;
    std::uint8_t pad;
    /// Sixteen raw bytes, so a compare is two word compares.
    friend bool operator==(const Key& a, const Key& b) {
      return std::memcmp(&a, &b, sizeof(Key)) == 0;
    }
  };
  struct alignas(64) KeyLine {
    std::array<Key, kSlots> keys;
  };
  struct Cold {
    std::uint64_t last_used;
    std::uint64_t tag;          // integrity tag over (hash, label, epoch)
    ClassLabelId label;
    std::uint32_t epoch;        // label epoch the entry was inserted under
    std::uint32_t alt_bucket;   // the key's other candidate bucket
  };
  struct alignas(64) ColdLines {
    std::array<Cold, kSlots> slots;
  };
  static_assert(sizeof(Key) == 16 && sizeof(KeyLine) == 64 && alignof(KeyLine) == 64,
                "a bucket's keys fill exactly one cache line");
  static_assert(sizeof(Cold) == 32,
                "two cold records per cache line, none straddling two");
  static_assert(std::is_trivial_v<KeyLine> && std::is_trivial_v<ColdLines>,
                "key lines and cold records live in raw mapped memory");
  // A slot costs its key, its cold record and a kSlots-th of a mask byte.
  static_assert(kSlots * (sizeof(Key) + sizeof(Cold)) + 1 <= kSlots * 49,
                "at most 49 bytes per slot");
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  static Key make_key(std::uint16_t vf, const FiveTuple& t);
  std::uint64_t key_hash(const Key& k) const;
  std::uint32_t bucket_of(std::uint64_t hash) const;
  std::uint32_t alt_bucket_of(std::uint64_t hash, std::uint32_t b1) const;
  std::uint64_t entry_tag(std::uint64_t hash, ClassLabelId label,
                          std::uint32_t epoch) const;
  Cold& cold(std::size_t slot) { return cold_[slot / kSlots].slots[slot % kSlots]; }
  const Cold& cold(std::size_t slot) const {
    return cold_[slot / kSlots].slots[slot % kSlots];
  }

  /// The slot holding `k` in `bucket`, or kNoSlot.
  std::size_t find_slot(std::uint32_t bucket, const Key& k) const;
  /// find_slot over b1, then b2.
  std::size_t find_key(std::uint32_t b1, std::uint32_t b2, const Key& k) const;

  /// The full admission path with explicit candidate buckets (the fault
  /// hooks pin these; normal inserts derive them from the hash).
  InsertOutcome insert_at(std::uint32_t b1, std::uint32_t b2, std::uint64_t hash,
                          const Key& k, ClassLabelId label,
                          std::uint64_t now_tick, std::uint32_t epoch);
  /// BFS for a kick path from {b1, b2} to a free slot within the budget.
  /// On success performs the displacements and returns the freed slot
  /// (kNoSlot on failure).
  std::size_t bfs_free_slot(std::uint32_t b1, std::uint32_t b2, std::uint32_t* kicks);
  void note_kick_failure();
  void note_lookup();
  void sweep_idle(std::uint64_t now_tick);
  void invalidate(std::size_t slot) {
    valid_[slot / kSlots] &= static_cast<std::uint8_t>(~(1u << (slot % kSlots)));
    --live_;
  }

  std::uint64_t idle_timeout_ticks_ = 0;
  // The three arrays share one anonymous mapping, not the heap. A table
  // is several MiB and every scenario frees and rebuilds one; from the
  // heap that fragmented what the rest of the simulator allocates. The
  // mapping is zero-filled, so the masks start clear, and backed only
  // where written (in 2 MiB units from kHugePageMinSlots up): only slots
  // whose valid bit is set are ever read.
  struct Unmap {
    std::size_t bytes;
    void operator()(void* p) const noexcept;
  };
  std::unique_ptr<void, Unmap> mapping_;
  KeyLine* keys_ = nullptr;        // one line per bucket
  ColdLines* cold_ = nullptr;      // two lines per bucket
  std::span<std::uint8_t> valid_;  // one mask per bucket; bit s = slot s live
  std::size_t buckets_ = 0;
  std::size_t live_ = 0;
  Stats stats_;
  std::uint64_t stamp_base_ = 0;  // mutation_stamp() carried over clear()

  // Degraded-mode state machine (lookup-driven, deterministic).
  Health health_ = Health::kHealthy;
  std::uint32_t failure_score_ = 0;
  std::uint64_t lookup_serial_ = 0;
  std::uint64_t dwell_ = 0;          // lookups in the current non-healthy state
  std::uint64_t admit_counter_ = 0;  // 1-in-N admission while recovering

  std::size_t sweep_cursor_ = 0;  // amortized idle-sweep position (buckets)
};

const char* health_name(ExactMatchFlowCache::Health h);

/// The full labeling function: flow-cache fast path falling back to an
/// ordered rule walk; resolved labels are cached. A default label (e.g. a
/// best-effort class) catches unmatched traffic.
class Classifier {
 public:
  /// Cycle cost model of the labeling path, charged as micro-engine time by
  /// the NP pipeline. A calibration of the Agilio CX, not a per-run choice:
  /// an EMC hit costs about a tenth of a software rule walk (Observation 2).
  static constexpr std::uint32_t kCacheHitCycles = 120;
  static constexpr std::uint32_t kCacheMissCycles = 250;    // hash + failed lookup
  static constexpr std::uint32_t kPerRuleCycles = 90;       // wildcard rule comparison
  static constexpr std::uint32_t kCacheInsertCycles = 150;
  static constexpr std::uint32_t kPerKickCycles = 35;       // one cuckoo displacement

  explicit Classifier(ExactMatchFlowCache::Options cache_options = {});

  void add_rule(FilterRule rule);
  /// Replace the whole rule set atomically (control-plane script swap).
  /// Existing cache entries stay resident but are lazily invalidated via the
  /// label epoch — call bump_label_epoch() after swapping.
  void replace_rules(std::vector<FilterRule> rules);
  void set_default_label(ClassLabelId label) { default_label_ = label; }
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  /// Advance the label epoch: every cache entry inserted before the bump is
  /// treated as a miss (and invalidated) on its next lookup.
  void bump_label_epoch() { ++label_epoch_; }
  std::uint32_t label_epoch() const { return label_epoch_; }

  struct Result {
    ClassLabelId label = net::kUnclassified;
    std::uint32_t cycles = 0;
    bool cache_hit = false;
  };

  /// Classify a packet; `now_tick` is any monotonically increasing counter
  /// (we pass virtual time) used for cache aging.
  Result classify(const net::Packet& pkt, std::uint64_t now_tick);

  bool cache_enabled() const { return cache_enabled_; }

  const ExactMatchFlowCache& cache() const { return cache_; }
  /// Mutable cache access for fault injection (poison / eviction storms).
  ExactMatchFlowCache& cache_for_fault() { return cache_; }
  std::size_t rule_count() const { return rules_.size(); }
  /// Rules in evaluation (pref) order — read by the control plane's shadow
  /// validator and its rollback snapshot.
  const std::vector<FilterRule>& rules() const { return rules_; }
  ClassLabelId default_label() const { return default_label_; }

  /// The label a fresh rule walk would assign right now — the coherence
  /// oracle (CacheCoherenceChecker): every cache hit must agree with this.
  ClassLabelId rule_walk_label(std::uint16_t vf, const FiveTuple& t) const;

 private:
  std::vector<FilterRule> rules_;  // kept sorted by pref
  ClassLabelId default_label_ = net::kUnclassified;
  ExactMatchFlowCache cache_;
  bool cache_enabled_ = true;
  std::uint32_t label_epoch_ = 0;
};

}  // namespace flowvalve::core
