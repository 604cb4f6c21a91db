#include "dns/name.hpp"

#include <cstring>
#include <stdexcept>

#include "common/strings.hpp"

namespace akadns::dns {
namespace {

constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxWire = 255;
constexpr std::size_t kMaxBytes = kMaxWire - 1;  // label bytes: all but the root octet

/// A name's label bytes assembled on the stack, checked against the RFC
/// limits as each label is added.
struct WireBuilder {
  char bytes[kMaxBytes];
  std::size_t size = 0;
  std::size_t count = 0;

  bool add_label(std::string_view label) noexcept {
    if (label.empty() || label.size() > kMaxLabel || size + 1 + label.size() > kMaxBytes) {
      return false;
    }
    bytes[size++] = static_cast<char>(label.size());
    for (const char c : label) bytes[size++] = ascii_lower(c);
    ++count;
    return true;
  }

  bool add_name(const DnsName& name) noexcept {
    const std::string_view wire = name.wire_labels();
    if (size + wire.size() > kMaxBytes) return false;
    std::memcpy(bytes + size, wire.data(), wire.size());
    size += wire.size();
    count += name.label_count();
    return true;
  }
};

/// Byte offset of label `k` (k <= label count) in well-formed label bytes.
std::size_t skip_labels(std::string_view wire, std::size_t k) noexcept {
  std::size_t pos = 0;
  for (; k > 0; --k) pos += 1 + static_cast<std::uint8_t>(wire[pos]);
  return pos;
}

}  // namespace

DnsName::DnsName(const DnsName& other) {
  std::memcpy(reset(other.size_, other.count_), other.data(), other.size_);
}

DnsName::DnsName(DnsName&& other) noexcept : size_(other.size_), count_(other.count_) {
  std::memcpy(buf_, other.buf_, kInlineBytes);  // the labels, or the heap pointer
  other.size_ = 0;
  other.count_ = 0;
}

DnsName& DnsName::operator=(const DnsName& other) {
  if (this != &other) std::memcpy(reset(other.size_, other.count_), other.data(), other.size_);
  return *this;
}

DnsName& DnsName::operator=(DnsName&& other) noexcept {
  if (this != &other) {
    release();
    std::memcpy(buf_, other.buf_, kInlineBytes);
    size_ = other.size_;
    count_ = other.count_;
    other.size_ = 0;
    other.count_ = 0;
  }
  return *this;
}

DnsName::~DnsName() { release(); }

const char* DnsName::data() const noexcept {
  if (!on_heap()) return buf_;
  const char* heap = nullptr;
  std::memcpy(&heap, buf_, sizeof heap);
  return heap;
}

char* DnsName::reset(std::size_t size, std::size_t count) {
  release();
  char* storage = buf_;
  if (size > kInlineBytes) {
    storage = new char[size];
    std::memcpy(buf_, &storage, sizeof storage);
  }
  size_ = static_cast<std::uint8_t>(size);
  count_ = static_cast<std::uint8_t>(count);
  return storage;
}

void DnsName::release() noexcept {
  if (on_heap()) delete[] data();
  size_ = 0;
  count_ = 0;
}

DnsName DnsName::make(std::string_view bytes, std::size_t count) {
  DnsName out;
  std::memcpy(out.reset(bytes.size(), count), bytes.data(), bytes.size());
  return out;
}

std::optional<DnsName> DnsName::parse(std::string_view text) {
  if (text.empty() || text == ".") return DnsName();
  if (text.back() == '.') text.remove_suffix(1);
  WireBuilder builder;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '.') {
      if (!builder.add_label(text.substr(start, i - start))) return std::nullopt;
      start = i + 1;
    }
  }
  return make({builder.bytes, builder.size}, builder.count);
}

DnsName DnsName::from(std::string_view text) {
  auto name = parse(text);
  if (!name) throw std::invalid_argument("invalid DNS name: " + std::string(text));
  return *std::move(name);
}

std::optional<DnsName> DnsName::from_labels(std::vector<std::string> labels) {
  WireBuilder builder;
  for (const auto& label : labels) {
    if (!builder.add_label(label)) return std::nullopt;
  }
  return make({builder.bytes, builder.size}, builder.count);
}

std::optional<DnsName> DnsName::from_wire(std::span<const std::uint8_t> labels) {
  if (labels.size() > kMaxBytes) return std::nullopt;
  std::size_t count = 0;
  for (std::size_t pos = 0; pos < labels.size(); pos += 1 + labels[pos], ++count) {
    const std::size_t len = labels[pos];
    if (len == 0 || len > kMaxLabel || pos + 1 + len > labels.size()) return std::nullopt;
  }
  DnsName out;
  char* dst = out.reset(labels.size(), count);
  // Length octets (1..63) lie below 'A', so lowercasing every byte
  // touches label bytes only.
  for (std::size_t i = 0; i < labels.size(); ++i) {
    dst[i] = ascii_lower(static_cast<char>(labels[i]));
  }
  return out;
}

std::string_view DnsName::label(std::size_t i) const noexcept {
  const std::string_view wire = wire_labels();
  const std::size_t pos = skip_labels(wire, i);
  return wire.substr(pos + 1, static_cast<std::uint8_t>(wire[pos]));
}

std::string DnsName::to_string() const {
  if (is_root()) return ".";
  const std::string_view wire = wire_labels();
  std::string out;
  out.reserve(wire.size());
  for (std::size_t pos = 0; pos < wire.size();) {
    const std::size_t len = static_cast<std::uint8_t>(wire[pos]);
    out.append(wire.substr(pos + 1, len));
    out += '.';
    pos += 1 + len;
  }
  return out;
}

DnsName DnsName::parent() const {
  if (count_ <= 1) return DnsName();
  const std::string_view wire = wire_labels();
  return make(wire.substr(skip_labels(wire, 1)), count_ - 1u);
}

std::optional<DnsName> DnsName::prepend(std::string_view label) const {
  WireBuilder builder;
  if (!builder.add_label(label) || !builder.add_name(*this)) return std::nullopt;
  return make({builder.bytes, builder.size}, builder.count);
}

std::optional<DnsName> DnsName::concat(const DnsName& suffix) const {
  WireBuilder builder;
  if (!builder.add_name(*this) || !builder.add_name(suffix)) return std::nullopt;
  return make({builder.bytes, builder.size}, builder.count);
}

bool DnsName::is_subdomain_of(const DnsName& ancestor) const noexcept {
  return ancestor.count_ <= count_ && ancestor.equals_tail_of(*this, ancestor.count_);
}

std::size_t DnsName::common_suffix_labels(const DnsName& other) const noexcept {
  const Labels a(*this);
  const Labels b(other);
  std::size_t count = 0;
  while (count < a.size() && count < b.size() &&
         a[a.size() - 1 - count] == b[b.size() - 1 - count]) {
    ++count;
  }
  return count;
}

bool DnsName::equals_tail_of(const DnsName& other, std::size_t n) const noexcept {
  if (count_ != n || other.count_ < n) return false;
  const std::string_view wire = other.wire_labels();
  return wire.substr(skip_labels(wire, other.count_ - n)) == wire_labels();
}

DnsName DnsName::suffix(std::size_t n) const {
  if (n >= count_) return *this;
  const std::string_view wire = wire_labels();
  return make(wire.substr(skip_labels(wire, count_ - n)), n);
}

DnsName::Labels::Labels(const DnsName& name) noexcept
    : data_(name.data()), size_(name.size_), count_(name.count_) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    offsets_[i] = static_cast<std::uint8_t>(pos);
    pos += 1 + static_cast<std::uint8_t>(data_[pos]);
  }
}

std::string_view DnsName::Labels::operator[](std::size_t i) const noexcept {
  const std::size_t pos = offsets_[i];
  return {data_ + pos + 1, static_cast<std::uint8_t>(data_[pos])};
}

std::string_view DnsName::Labels::tail(std::size_t n) const noexcept {
  const std::size_t pos = n == 0 ? size_ : offsets_[count_ - n];
  return {data_ + pos, size_ - pos};
}

std::uint64_t DnsName::suffix_hash_extend(std::uint64_t h, std::string_view label) noexcept {
  h ^= fnv1a(label);
  h *= 0x100000001b3ULL;
  return h;
}

std::uint64_t DnsName::suffix_hash() const noexcept {
  const Labels labels(*this);
  std::uint64_t h = kSuffixHashSeed;
  for (std::size_t i = labels.size(); i-- > 0;) h = suffix_hash_extend(h, labels[i]);
  return h;
}

std::strong_ordering DnsName::operator<=>(const DnsName& other) const noexcept {
  // Canonical ordering: compare right-to-left, label by label.
  const Labels a(*this);
  const Labels b(other);
  for (std::size_t i = a.size(), j = b.size(); i > 0 && j > 0;) {
    if (const int cmp = a[--i].compare(b[--j]); cmp != 0) {
      return cmp < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
    }
  }
  return a.size() <=> b.size();
}

std::uint64_t DnsName::hash() const noexcept {
  const std::string_view wire = wire_labels();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t pos = 0; pos < wire.size();) {
    const std::size_t len = static_cast<std::uint8_t>(wire[pos]);
    h ^= fnv1a(wire.substr(pos + 1, len));
    h *= 0x100000001b3ULL;
    pos += 1 + len;
  }
  return h;
}

}  // namespace akadns::dns
