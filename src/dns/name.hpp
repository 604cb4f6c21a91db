// DNS domain names (RFC 1035 §2.3 / §3.1).
//
// A DnsName holds its name once, as lowercased uncompressed wire bytes:
// length-prefixed labels, left to right, without the terminating root
// octet (DNS comparisons are ASCII case-insensitive). The root name has
// zero labels and zero bytes. Enforces the RFC limits: label <= 63
// octets, total wire length <= 255.
//
// Names up to kInlineBytes of labels live inside the object; longer ones
// take one exact-size heap block. kInlineBytes covers every qname of the
// benchmark corpus (14–26 wire bytes) and every synthetic zone name, so
// a decoded query and a compiled zone's names touch the heap only for
// real-world long names. A label may hold any byte — '.', 0x00, a byte
// equal to a length octet — so everything that compares tails walks
// label boundaries from the left, never trailing bytes.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace akadns::dns {

class DnsName {
 public:
  /// Label bytes stored in place; longer names spill to the heap.
  static constexpr std::size_t kInlineBytes = 30;
  /// At most 127 labels fit in 255 wire octets.
  static constexpr std::size_t kMaxLabels = 127;

  /// The root name ".".
  DnsName() noexcept = default;
  DnsName(const DnsName& other);
  DnsName(DnsName&& other) noexcept;
  DnsName& operator=(const DnsName& other);
  DnsName& operator=(DnsName&& other) noexcept;
  ~DnsName();

  /// Parses dotted presentation form ("www.Example.COM", trailing dot
  /// optional, "" and "." both mean root). Returns nullopt if a label is
  /// empty/too long or the total length exceeds 255 wire octets.
  static std::optional<DnsName> parse(std::string_view text);

  /// Like parse() but throws std::invalid_argument; convenient for
  /// literals in tests and examples.
  static DnsName from(std::string_view text);

  /// Builds from labels (lowercased internally); nullopt past the limits.
  static std::optional<DnsName> from_labels(std::vector<std::string> labels);

  /// Builds from uncompressed length-prefixed labels without the root
  /// octet (lowercased internally); nullopt if a length octet is 0 or
  /// above 63, the last label runs past the end, or the name exceeds 255
  /// wire octets. Allocation-free for names of kInlineBytes or fewer.
  static std::optional<DnsName> from_wire(std::span<const std::uint8_t> labels);

  bool is_root() const noexcept { return size_ == 0; }
  std::size_t label_count() const noexcept { return count_; }
  /// Label `i`, counted from the left. O(i): walks the length octets.
  std::string_view label(std::size_t i) const noexcept;

  /// Length of this name in wire format (sum of 1+len per label, +1 root).
  std::size_t wire_length() const noexcept { return std::size_t{size_} + 1; }

  /// The length-prefixed labels, without the root octet. Two names are
  /// equal exactly when these bytes are; so are two label-aligned tails.
  std::string_view wire_labels() const noexcept { return {data(), size_}; }

  /// "www.example.com." (root prints as ".").
  std::string to_string() const;

  /// The name with the leftmost label removed; root's parent is root.
  DnsName parent() const;

  /// Prepends a single label; returns nullopt if limits would be violated.
  std::optional<DnsName> prepend(std::string_view label) const;

  /// Concatenation: this name relative to `suffix`
  /// ("www" + "example.com" -> "www.example.com").
  std::optional<DnsName> concat(const DnsName& suffix) const;

  /// True if this name is `ancestor` or a descendant of it.
  bool is_subdomain_of(const DnsName& ancestor) const noexcept;

  /// Number of trailing labels shared with `other`.
  std::size_t common_suffix_labels(const DnsName& other) const noexcept;

  /// The trailing `n` labels as a name (n >= label_count() returns *this).
  DnsName suffix(std::size_t n) const;

  /// True if this name equals the trailing `n` labels of `other` — the
  /// allocation-free form of `*this == other.suffix(n)`.
  bool equals_tail_of(const DnsName& other, std::size_t n) const noexcept;

  /// Every label's offset, found in one left-to-right pass, so a walk can
  /// read labels and label-aligned tails in any order in O(1) each. The
  /// wire form links labels only forwards; this is how right-to-left
  /// walks (suffix hashing, canonical order, longest-suffix match) avoid
  /// both the heap and an O(labels²) rescan. Lives on the stack and must
  /// not outlive the name it indexes.
  class Labels {
   public:
    explicit Labels(const DnsName& name) noexcept;
    std::size_t size() const noexcept { return count_; }
    /// Label `i`, counted from the left.
    std::string_view operator[](std::size_t i) const noexcept;
    /// The trailing `n` labels (n <= size()) in wire_labels() form.
    std::string_view tail(std::size_t n) const noexcept;

   private:
    const char* data_;
    std::uint8_t size_;
    std::uint8_t count_;
    std::uint8_t offsets_[kMaxLabels];
  };

  // -- incremental suffix hashing -------------------------------------------
  //
  // A right-to-left fold over the labels: the hash of a name's trailing
  // n+1 labels derives from the trailing-n hash and one more label, so a
  // lookup can probe every suffix depth of a query name with a single
  // pass and zero DnsName constructions (the compiled-zone node index and
  // the zone store's longest-suffix match both key on this).
  static constexpr std::uint64_t kSuffixHashSeed = 0xcbf29ce484222325ULL;

  /// Folds one more label (the next one to the left) into a suffix hash.
  static std::uint64_t suffix_hash_extend(std::uint64_t h, std::string_view label) noexcept;

  /// The suffix hash of the whole name (root hashes to the seed).
  std::uint64_t suffix_hash() const noexcept;

  /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences
  /// right-to-left, label bytes unsigned, a label before any longer label
  /// it prefixes. Used by the zone tree.
  std::strong_ordering operator<=>(const DnsName& other) const noexcept;
  bool operator==(const DnsName& other) const noexcept {
    return wire_labels() == other.wire_labels();
  }

  std::uint64_t hash() const noexcept;

 private:
  bool on_heap() const noexcept { return size_ > kInlineBytes; }
  const char* data() const noexcept;
  /// Drops the contents and returns room for `size` label bytes (inline
  /// or a fresh heap block) for the caller to fill.
  char* reset(std::size_t size, std::size_t count);
  void release() noexcept;
  /// A name from validated, lowercased label bytes.
  static DnsName make(std::string_view bytes, std::size_t count);

  /// The labels themselves when they fit, else a pointer (memcpy'd in)
  /// to an exact-size heap block.
  alignas(char*) char buf_[kInlineBytes] = {};
  std::uint8_t size_ = 0;   // label bytes (wire length minus the root octet)
  std::uint8_t count_ = 0;  // labels
};

}  // namespace akadns::dns

template <>
struct std::hash<akadns::dns::DnsName> {
  std::size_t operator()(const akadns::dns::DnsName& n) const noexcept {
    return static_cast<std::size_t>(n.hash());
  }
};
