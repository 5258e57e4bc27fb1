// ctwatch::namepool — interned DNS-name storage for funnel-scale corpora.
//
// The §4/§5 analyses operate on hundreds of millions of FQDNs (210.7M
// candidates in the enumeration funnel alone); storing each name as a
// vector of heap strings makes allocation the hot path. This module keeps
// every distinct label exactly once in a string arena (LabelTable) and
// every distinct name exactly once as a contiguous run of LabelIds in a
// flat arena (NamePool). A NameRef is then an 8-byte value with O(1)
// hash/equality (the pool canonicalizes: equal names get the same ref),
// cheap parent()/is_subdomain_of() (integer compares, no strings), and
// lazy to_string().
//
// Concurrency model, designed for read-mostly analysis pipelines:
//  * intern/parent/with_prefix (writers) serialize on an internal mutex;
//  * readers of already-published data — text(), ids(), to_string(),
//    is_subdomain_of() — are wait-free: arenas are chunked (addresses
//    never move) and entry counts are published with release stores.
// A ref obtained from any intern call may be used concurrently with
// further interning, which is exactly what the TSAN target exercises.
// Consumers that decide on names (the PSL split) read label text through
// text() and keep no id-keyed state of their own, so nothing cached
// against one pool can be misread against another.
//
// Memory accounting is explicit: bytes_used() reports what the arenas,
// dedup tables and indexes actually hold, and every growth step is
// mirrored into the obs gauges namepool.bytes / namepool.labels /
// namepool.names (aggregated across pools via add/sub deltas).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ctwatch::namepool {

/// Index of an interned string in a LabelTable. Dense, starting at 0.
using LabelId = std::uint32_t;

/// A table of unique strings. General-purpose: DNS labels in NamePool,
/// but also e.g. observed TLS server names in the passive monitor.
/// intern() and find() serialize on a mutex; text()/size() are wait-free.
class LabelTable {
 public:
  LabelTable() = default;
  ~LabelTable();
  LabelTable(const LabelTable&) = delete;
  LabelTable& operator=(const LabelTable&) = delete;

  /// Returns the id of `text`, interning it on first sight.
  /// Throws std::length_error when the table is full.
  LabelId intern(std::string_view text);

  /// Lookup without interning.
  [[nodiscard]] std::optional<LabelId> find(std::string_view text) const;

  /// The interned string. `id` must be < size(). Wait-free; the returned
  /// view stays valid for the table's lifetime.
  [[nodiscard]] std::string_view text(LabelId id) const;

  /// Number of unique strings interned so far. Wait-free.
  [[nodiscard]] std::size_t size() const { return count_.load(std::memory_order_acquire); }

  /// Bytes held by the arena, the entry blocks and the dedup index.
  [[nodiscard]] std::size_t bytes_used() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    const char* ptr;
    std::uint32_t len;
  };
  static constexpr std::size_t kEntriesPerBlock = 1u << 12;
  static constexpr std::size_t kMaxBlocks = 1u << 12;  // up to ~16.7M strings
  static constexpr std::size_t kMinChunk = 1u << 16;

  const char* store_text(std::string_view text);  // caller holds mu_

  // Readers: acquire count_, then entries below it are safely published.
  std::array<std::atomic<Entry*>, kMaxBlocks> blocks_{};
  std::atomic<std::uint32_t> count_{0};
  std::atomic<std::size_t> bytes_{0};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t chunk_used_ = 0;
  std::size_t chunk_cap_ = 0;
  // Open-addressed dedup index over the entries: slot = id + 1, 0 empty.
  std::vector<std::uint32_t> index_;
  std::size_t index_used_ = 0;
};

/// A name held by a NamePool: `count` labels starting at `offset` in the
/// pool's flat LabelId arena, leftmost (host) label first. Equal names in
/// the same pool always carry the same (offset, count), so hash and
/// equality are O(1) and never touch the arena. The empty (root) name is
/// {0, 0}. Refs are only meaningful against the pool that produced them.
struct NameRef {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;

  [[nodiscard]] bool empty() const { return count == 0; }
  friend bool operator==(const NameRef&, const NameRef&) = default;
};

struct NameRefHash {
  std::size_t operator()(const NameRef& ref) const {
    std::uint64_t x = (static_cast<std::uint64_t>(ref.offset) << 32) | ref.count;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Arena-backed, deduplicating storage for label sequences.
class NamePool {
 public:
  NamePool() = default;
  ~NamePool();
  NamePool(const NamePool&) = delete;
  NamePool& operator=(const NamePool&) = delete;

  struct Interned {
    NameRef ref;
    bool fresh = false;  ///< true when this intern created the name
  };

  /// The label table backing this pool.
  [[nodiscard]] LabelTable& labels() { return labels_; }
  [[nodiscard]] const LabelTable& labels() const { return labels_; }

  /// Interns a label sequence (leftmost label first). Ids must come from
  /// labels(). O(count) hash + one table probe; allocation only when new.
  Interned intern_ids(std::span<const LabelId> ids);

  /// Splits `dotted` on '.' and interns every piece as a label. No DNS
  /// validation — dns::DnsName::parse_into() is the validated entry point.
  Interned intern_text(std::string_view dotted);

  /// Lookup without interning.
  [[nodiscard]] std::optional<NameRef> find_ids(std::span<const LabelId> ids) const;

  /// The label ids of `ref`, leftmost first. Wait-free; the span stays
  /// valid for the pool's lifetime.
  [[nodiscard]] std::span<const LabelId> ids(NameRef ref) const;

  /// Text of the i-th label of `ref` (0 = leftmost).
  [[nodiscard]] std::string_view label(NameRef ref, std::size_t i) const {
    return labels_.text(ids(ref)[i]);
  }

  /// Dotted textual form, no trailing dot; "" for the empty name.
  [[nodiscard]] std::string to_string(NameRef ref) const;
  /// Appends the dotted form to `out` (reusable buffer, no extra allocs).
  void append_to(std::string& out, NameRef ref) const;

  /// The name with the leftmost `n` labels dropped (n <= ref.count).
  /// Interns the suffix when it was never seen on its own — usually a
  /// pure table hit, never a string operation.
  NameRef parent(NameRef ref, std::size_t n = 1);

  /// Prepends one interned label — the §4 candidate composition
  /// (label × registrable domain) as pure integer work.
  Interned with_prefix(NameRef ref, LabelId label);

  /// Batched with_prefix over one label: composes label.suffix for every
  /// suffix in order, appending each resulting ref to `out`, under a
  /// single lock acquisition (the funnel composes hundreds of thousands
  /// per plan entry). Returns how many compositions were new to the pool.
  std::uint64_t with_prefix_batch(LabelId label, std::span<const NameRef> suffixes,
                                  std::vector<NameRef>& out);

  /// True if `name` equals `ancestor` or sits below it. Wait-free.
  [[nodiscard]] bool is_subdomain_of(NameRef name, NameRef ancestor) const;

  /// Unique names interned.
  [[nodiscard]] std::uint64_t size() const { return names_.load(std::memory_order_relaxed); }

  /// Bytes held by the label table, the id arena and the dedup table.
  [[nodiscard]] std::size_t bytes_used() const {
    return labels_.bytes_used() + bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kIdsPerBlock = 1u << 16;
  static constexpr std::size_t kMaxBlocks = 1u << 13;  // up to ~536M label slots

  [[nodiscard]] static std::uint64_t hash_ids(std::span<const LabelId> ids);
  [[nodiscard]] bool ids_equal(std::uint32_t offset, std::span<const LabelId> ids) const;
  Interned intern_ids_locked(std::span<const LabelId> ids);  // caller holds mu_, no metrics
  std::uint32_t append_ids(std::span<const LabelId> ids);  // caller holds mu_
  void grow_dedup();                                       // caller holds mu_

  LabelTable labels_;

  // Flat LabelId arena, chunked so published entries never move. Each
  // name occupies count+1 contiguous slots: [count][ids...]; a NameRef's
  // offset points at ids[0] so the dedup table can store bare offsets.
  std::array<std::atomic<LabelId*>, kMaxBlocks> blocks_{};
  std::atomic<std::uint32_t> arena_used_{0};
  std::atomic<std::uint64_t> names_{0};
  std::atomic<std::size_t> bytes_{0};

  mutable std::mutex mu_;
  // Open-addressed dedup: slot = ids-offset + 1, 0 empty. The label count
  // lives in the arena at offset - 1, so slots are 4 bytes, not 8.
  std::vector<std::uint32_t> dedup_;
  std::size_t dedup_used_ = 0;
};

}  // namespace ctwatch::namepool
