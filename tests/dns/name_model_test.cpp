// DnsName against a model: every method is checked, on random names, with
// a plain label-vector reference that shares no code with the wire-byte
// representation. The generator favours the cases that representation
// makes delicate: uppercase, 63-byte labels, names at the 255-octet limit,
// the root, and labels holding '.', 0x00 or a byte equal to a length
// octet, with many names sharing suffixes so the tail comparisons see
// both outcomes.

#include <gtest/gtest.h>

#include <compare>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dns/name.hpp"
#include "dns/wire.hpp"

namespace akadns::dns {
namespace {

static_assert(sizeof(DnsName) <= 48, "a name sits inline in every record and map key");

using Labels = std::vector<std::string>;

constexpr std::size_t kMaxWire = 255;

std::string lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

Labels lower(Labels labels) {
  for (auto& label : labels) label = lower(label);
  return labels;
}

std::size_t ref_wire_length(const Labels& labels) {
  std::size_t wire = 1;
  for (const auto& label : labels) wire += 1 + label.size();
  return wire;
}

bool ref_valid(const Labels& labels) {
  for (const auto& label : labels) {
    if (label.empty() || label.size() > 63) return false;
  }
  return ref_wire_length(labels) <= kMaxWire;
}

std::string ref_to_string(const Labels& labels) {
  if (labels.empty()) return ".";
  std::string out;
  for (const auto& label : labels) out += label + ".";
  return out;
}

Labels ref_suffix(const Labels& labels, std::size_t n) {
  if (n >= labels.size()) return labels;
  return Labels(labels.end() - static_cast<std::ptrdiff_t>(n), labels.end());
}

std::size_t ref_common_suffix(const Labels& a, const Labels& b) {
  std::size_t n = 0;
  while (n < a.size() && n < b.size() && a[a.size() - 1 - n] == b[b.size() - 1 - n]) ++n;
  return n;
}

int ref_compare_label(const std::string& a, const std::string& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const auto x = static_cast<unsigned char>(a[i]);
    const auto y = static_cast<unsigned char>(b[i]);
    if (x != y) return x < y ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

// RFC 4034 §6.1: labels right to left; a name before any name it is a
// proper suffix of.
std::strong_ordering ref_compare(const Labels& a, const Labels& b) {
  for (std::size_t i = 1; i <= a.size() && i <= b.size(); ++i) {
    const int cmp = ref_compare_label(a[a.size() - i], b[b.size() - i]);
    if (cmp != 0) return cmp < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  return a.size() <=> b.size();
}

std::vector<std::uint8_t> ref_wire(const Labels& labels) {
  std::vector<std::uint8_t> out;
  for (const auto& label : labels) {
    out.push_back(static_cast<std::uint8_t>(label.size()));
    out.insert(out.end(), label.begin(), label.end());
  }
  return out;
}

// Label bytes: mostly letters of both cases, with '.', 0x00, bytes equal
// to plausible length octets, and high bytes mixed in.
char random_byte(Rng& rng) {
  static const char kPlain[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-*";
  static const char kOdd[] = {'.', '\0', '\x01', '\x03', '\x07', '\x3f', '\x40', '\xc0', '\xff'};
  if (rng.next_below(6) == 0) return kOdd[rng.next_below(sizeof kOdd)];
  return kPlain[rng.next_below(sizeof kPlain - 1)];
}

std::string random_label(Rng& rng) {
  const std::size_t len = rng.next_below(10) == 0 ? 63 : 1 + rng.next_below(8);
  std::string label;
  for (std::size_t i = 0; i < len; ++i) label.push_back(random_byte(rng));
  return label;
}

/// A label holding the wire bytes of a tail of an earlier name, so that
/// the trailing bytes of one name can equal another name's wire form
/// without any label boundary lining up.
std::string embedded_label(Rng& rng, const std::vector<Labels>& pool) {
  const Labels& base = pool[rng.next_below(pool.size())];
  if (base.empty()) return random_label(rng);
  const auto wire = ref_wire(ref_suffix(base, 1 + rng.next_below(base.size())));
  const std::size_t len = std::min<std::size_t>(wire.size(), 63);
  return std::string(wire.end() - static_cast<std::ptrdiff_t>(len), wire.end());
}

/// Random labels within the limits: sometimes the root, sometimes filled
/// to exactly 255 octets, often a fresh prefix over a suffix of a name
/// already generated.
Labels random_labels(Rng& rng, const std::vector<Labels>& pool) {
  Labels labels;
  if (!pool.empty() && rng.next_below(2) == 0) {
    const Labels& base = pool[rng.next_below(pool.size())];
    labels = ref_suffix(base, rng.next_below(base.size() + 1));
  }
  const std::size_t extra = rng.next_below(8) == 0 ? 0 : rng.next_below(5);
  for (std::size_t i = 0; i < extra; ++i) {
    Labels longer = labels;
    const bool embed = !pool.empty() && rng.next_below(6) == 0;
    longer.insert(longer.begin(), embed ? embedded_label(rng, pool) : random_label(rng));
    if (ref_valid(longer)) labels = std::move(longer);
  }
  if (rng.next_below(8) == 0) {  // pad to exactly 255 wire octets
    while (ref_wire_length(labels) < kMaxWire) {
      const std::size_t room = kMaxWire - ref_wire_length(labels) - 1;  // minus the length octet
      if (room == 0) {
        labels.erase(labels.begin());
        continue;
      }
      std::string label;
      const std::size_t len = std::min<std::size_t>(room, 63);
      for (std::size_t i = 0; i < len; ++i) label.push_back(random_byte(rng));
      labels.insert(labels.begin(), std::move(label));
    }
  }
  return labels;
}

void expect_matches(const DnsName& name, const Labels& ref) {
  ASSERT_EQ(name.label_count(), ref.size());
  ASSERT_EQ(name.is_root(), ref.empty());
  EXPECT_EQ(name.wire_length(), ref_wire_length(ref));
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(name.label(i), ref[i]) << i;
  const DnsName::Labels view(name);
  ASSERT_EQ(view.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(view[i], ref[i]) << i;
  for (std::size_t n = 0; n <= ref.size(); ++n) {
    const auto want = ref_wire(ref_suffix(ref, n));
    EXPECT_EQ(view.tail(n),
              std::string_view(reinterpret_cast<const char*>(want.data()), want.size()));
  }
  EXPECT_EQ(name.to_string(), ref_to_string(ref));
}

TEST(DnsNameModel, EveryMethodMatchesALabelVectorReference) {
  Rng rng(2024);
  std::vector<Labels> refs;  // lowercased references
  std::vector<DnsName> names;
  for (int i = 0; i < 1500; ++i) {
    const Labels raw = random_labels(rng, refs);
    const Labels ref = lower(raw);
    // Two independent constructions: from labels, and from wire bytes.
    const auto from_labels = DnsName::from_labels(raw);
    ASSERT_TRUE(from_labels) << i;
    const auto raw_wire = ref_wire(raw);
    const auto from_wire = DnsName::from_wire(raw_wire);
    ASSERT_TRUE(from_wire) << i;
    EXPECT_EQ(*from_wire, *from_labels);
    expect_matches(*from_labels, ref);
    if (HasFatalFailure()) return;

    // Copies and moves keep the value, inline or on the heap.
    DnsName copy = *from_labels;
    EXPECT_EQ(copy, *from_labels);
    DnsName moved = std::move(copy);
    EXPECT_EQ(moved, *from_labels);
    copy = moved;
    EXPECT_EQ(copy, moved);

    // Presentation round trip, for names a dot can separate.
    bool dotless = true;
    for (const auto& label : raw) dotless = dotless && label.find('.') == std::string::npos;
    if (dotless) {
      const std::string text = ref_to_string(raw);
      const auto parsed = DnsName::parse(text);
      ASSERT_TRUE(parsed) << text;
      EXPECT_EQ(*parsed, *from_labels);
      EXPECT_EQ(parsed->to_string(), ref_to_string(ref));
    }

    refs.push_back(ref);
    names.push_back(*from_labels);
  }

  for (std::size_t i = 0; i < names.size(); ++i) {
    const DnsName& a = names[i];
    const Labels& ra = refs[i];

    // parent, prepend, suffix
    expect_matches(a.parent(), ra.empty() ? Labels{} : Labels(ra.begin() + 1, ra.end()));
    const std::string label = random_label(rng);
    Labels prepended = ra;
    prepended.insert(prepended.begin(), label);
    const auto pre = a.prepend(label);
    ASSERT_EQ(pre.has_value(), ref_valid(prepended)) << i;
    if (pre) expect_matches(*pre, lower(prepended));
    for (std::size_t n = 0; n <= ra.size() + 1; ++n) expect_matches(a.suffix(n), ref_suffix(ra, n));

    // Pairwise methods, against a random partner, an ancestor of `a`
    // and a cousin that shares some of its suffix — each partner built
    // from reference labels, not from `a`'s methods.
    const Labels& rj = refs[rng.next_below(refs.size())];
    const Labels ancestor = ref_suffix(ra, rng.next_below(ra.size() + 1));
    Labels cousin = ancestor;
    cousin.insert(cousin.begin(), lower(random_label(rng)));
    if (!ref_valid(cousin)) cousin = ancestor;
    for (const Labels& rb : {rj, ancestor, cousin}) {
      const DnsName b = *DnsName::from_labels(rb);
      Labels joined = ra;
      joined.insert(joined.end(), rb.begin(), rb.end());
      const auto cat = a.concat(b);
      ASSERT_EQ(cat.has_value(), ref_valid(joined)) << i;
      if (cat) expect_matches(*cat, joined);

      const std::size_t common = ref_common_suffix(ra, rb);
      EXPECT_EQ(a.common_suffix_labels(b), common) << i;
      EXPECT_EQ(b.common_suffix_labels(a), common) << i;
      EXPECT_EQ(a.is_subdomain_of(b), rb.size() <= ra.size() && common == rb.size()) << i;
      EXPECT_EQ(b.is_subdomain_of(a), ra.size() <= rb.size() && common == ra.size()) << i;
      for (std::size_t n = 0; n <= ra.size() + 1; ++n) {
        const bool want = rb.size() == n && ra.size() >= n && ref_suffix(ra, n) == rb;
        EXPECT_EQ(b.equals_tail_of(a, n), want) << i << " n=" << n;
      }
      EXPECT_TRUE((a <=> b) == ref_compare(ra, rb)) << i;
      EXPECT_TRUE((b <=> a) == ref_compare(rb, ra)) << i;
      EXPECT_EQ(a == b, ra == rb) << i;
      if (ra == rb) {
        EXPECT_EQ(a.hash(), b.hash());
        EXPECT_EQ(a.suffix_hash(), b.suffix_hash());
      }
    }
    if (HasFatalFailure()) return;
  }
}

// Names survive the wire codec, compression included, whatever bytes
// their labels hold: compression matches tails on label boundaries.
TEST(DnsNameModel, WireRoundTripKeepsOddLabels) {
  Rng rng(77);
  std::vector<Labels> refs;
  for (int i = 0; i < 300; ++i) {
    const Labels qref = random_labels(rng, refs);
    refs.push_back(lower(qref));
    const Labels oref = random_labels(rng, refs);  // often shares a suffix
    refs.push_back(lower(oref));
    const DnsName qname = *DnsName::from_labels(qref);
    const DnsName owner = *DnsName::from_labels(oref);
    Message m = make_query(static_cast<std::uint16_t>(i), qname, RecordType::NS);
    m.answers.push_back(make_ns(qname, owner, 60));
    m.answers.push_back(make_ns(owner, qname, 60));
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.ok()) << i;
    ASSERT_EQ(decoded.value().questions.size(), 1u);
    EXPECT_EQ(decoded.value().questions[0].name, qname) << i;
    EXPECT_EQ(decoded.value().answers, m.answers) << i;
  }
}

// Tails are compared on label boundaries, never on trailing bytes: each
// pair below has one name's wire form as the other's trailing bytes.
TEST(DnsNameModel, TailsCompareOnLabelBoundaries) {
  struct Case {
    DnsName name;
    DnsName tail_bytes;  // equals the trailing bytes of name's wire form
    std::size_t common;  // labels the two really share
  };
  const Case cases[] = {
      // 02 01 'a' against 01 'a'
      {*DnsName::from_labels({"\x01" "a"}), DnsName::from("a"), 0},
      // 09 'x' 07 "example" 03 "com" against 07 "example" 03 "com"
      {*DnsName::from_labels({"x\x07" "example", "com"}), DnsName::from("example.com"), 1},
  };
  Message m = make_query(1, cases[0].name, RecordType::NS);
  for (const Case& c : cases) {
    const std::string_view wire = c.name.wire_labels();
    ASSERT_TRUE(wire.ends_with(c.tail_bytes.wire_labels()));
    EXPECT_FALSE(c.name.is_subdomain_of(c.tail_bytes)) << c.name.to_string();
    EXPECT_EQ(c.name.common_suffix_labels(c.tail_bytes), c.common) << c.name.to_string();
    EXPECT_FALSE(c.tail_bytes.equals_tail_of(c.name, c.tail_bytes.label_count()));
    EXPECT_FALSE(DnsName::Labels(c.name).tail(c.tail_bytes.label_count()) ==
                 c.tail_bytes.wire_labels());
    EXPECT_NE(c.name.suffix_hash(), c.tail_bytes.suffix_hash()) << c.name.to_string();
    m.answers.push_back(make_ns(c.name, c.tail_bytes, 60));
  }
  // Nor may the encoder point one name at the other's bytes.
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers, m.answers);
}

// hash() and suffix_hash() keep the values they had when a name was a
// vector of label strings: the compiled index and the zone store key on
// them, so a silent change would be a silent re-keying.
TEST(DnsNameModel, HashesArePinned) {
  const std::string l63(63, 'x');
  const std::string l61(61, 'q');
  struct Pin {
    DnsName name;
    std::size_t wire;
    std::uint64_t hash;
    std::uint64_t suffix_hash;
  };
  const Pin pins[] = {
      {DnsName(), 1, 0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL},
      {DnsName::from("com"), 5, 0x6d0593d006f19c81ULL, 0x6d0593d006f19c81ULL},
      {DnsName::from("www.example.com"), 17, 0xe7f4c54180eec7a0ULL, 0x88615723d9bea144ULL},
      {DnsName::from("WWW.Example.COM"), 17, 0xe7f4c54180eec7a0ULL, 0x88615723d9bea144ULL},
      {DnsName::from("a.b.c.d.e.f.g"), 15, 0x4992b668c8a24988ULL, 0xb1557199a8c71a00ULL},
      {DnsName::from(l63 + ".example"), 73, 0xd77b168b96cb7e1dULL, 0xafcc7a03d4410d09ULL},
      {*DnsName::from_labels({"a.b", std::string("\0z", 2), "\x03" "abc", "COM"}), 17,
       0x0a3734c774604f00ULL, 0xb842fd757bb0acd6ULL},
      {*DnsName::from_labels({l63, l63, l63, l61}), 255, 0x1cd29aec6da5f57cULL,
       0x97b4c14161ec50d6ULL},
      {DnsName::from("*.apps.ent42.example"), 22, 0xc19a25113a7e19fcULL, 0xe4322e5205bf7a0aULL},
      {DnsName::from("ent4999.example"), 17, 0xb6773aab35187fd1ULL, 0xd0dc40b118407b85ULL},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(pin.name.wire_length(), pin.wire) << pin.name.to_string();
    EXPECT_EQ(pin.name.hash(), pin.hash) << pin.name.to_string();
    EXPECT_EQ(pin.name.suffix_hash(), pin.suffix_hash) << pin.name.to_string();
  }
}

TEST(DnsNameModel, FromWireRejectsMalformedLabels) {
  const auto bytes = [](std::initializer_list<int> b) {
    std::vector<std::uint8_t> out;
    for (int x : b) out.push_back(static_cast<std::uint8_t>(x));
    return out;
  };
  EXPECT_TRUE(DnsName::from_wire(bytes({}))->is_root());
  EXPECT_EQ(*DnsName::from_wire(bytes({1, 'A', 2, 'b', 'C'})), DnsName::from("a.bc"));
  EXPECT_FALSE(DnsName::from_wire(bytes({0})));           // empty label
  EXPECT_FALSE(DnsName::from_wire(bytes({2, 'a'})));      // runs past the end
  EXPECT_FALSE(DnsName::from_wire(bytes({64})));          // label type bits
  EXPECT_FALSE(DnsName::from_wire(bytes({0xc0, 0x0c})));  // a pointer is not a label
  std::vector<std::uint8_t> longest;
  for (int i = 0; i < 127; ++i) longest.insert(longest.end(), {1, 'a'});
  EXPECT_TRUE(DnsName::from_wire(longest));  // 254 bytes: 255 with the root
  longest.insert(longest.end(), {1, 'a'});
  EXPECT_FALSE(DnsName::from_wire(longest));
}

}  // namespace
}  // namespace akadns::dns
