#include "dns/wire.hpp"

#include <algorithm>
#include <cstring>

namespace akadns::dns {
namespace {

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

class Encoder {
 public:
  /// Writes into `out`, reusing whatever capacity it already has — the
  /// per-query encode allocates nothing once the buffer reached working
  /// size.
  Encoder(std::vector<std::uint8_t>& out, bool compress)
      : compress_(compress), out_(out), offsets_(scratch_offsets()) {
    out_.clear();
    // One up-front reservation covers virtually every real message; the
    // hot path then appends without reallocating.
    if (out_.capacity() < 512) out_.reserve(512);
    offsets_.clear();
  }

  std::size_t size() const noexcept { return out_.size(); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  /// Writes a name, emitting a compression pointer when a suffix of the
  /// name was already written at a pointer-reachable offset (< 0x4000).
  /// Written suffixes are indexed by their label bytes — the names being
  /// encoded outlive the encoder, so no DnsName is ever copied on this
  /// path, and label-aligned tails are equal exactly when their bytes are.
  void name(const DnsName& n) {
    const std::string_view wire = n.wire_labels();
    for (std::size_t pos = 0; pos < wire.size();) {
      const std::string_view tail = wire.substr(pos);
      if (compress_) {
        if (const SuffixRef* hit = find_suffix(tail)) {
          u16(static_cast<std::uint16_t>(0xC000 | hit->offset));
          return;
        }
        if (out_.size() < 0x3FFF) {
          offsets_.push_back(SuffixRef{tail, static_cast<std::uint16_t>(out_.size())});
        }
      }
      const std::size_t label_end = pos + 1 + static_cast<std::uint8_t>(wire[pos]);
      bytes({reinterpret_cast<const std::uint8_t*>(wire.data() + pos), label_end - pos});
      pos = label_end;
    }
    u8(0);  // root
  }

  void truncate_to(std::size_t n) {
    out_.resize(n);
    // Drop compression offsets that now point past the end.
    std::erase_if(offsets_, [n](const SuffixRef& s) { return s.offset >= n; });
  }

  /// Emits one precompiled record. Names (owner and any RDATA name
  /// fields) go through name() — the same compression decisions as the
  /// record-by-record path — and RDLENGTH is patched after the body, so
  /// the output is byte-identical to encode_rr() on the source record.
  void fragment(const WireFragment& f, const DnsName* owner_override) {
    name(owner_override ? *owner_override : *f.owner);
    bytes(f.fixed);
    const std::size_t len_at = size();
    u16(0);
    const std::size_t body_at = size();
    for (const auto& op : f.rdata) {
      bytes(op.literal);
      if (op.name) name(*op.name);
    }
    patch_u16(len_at, static_cast<std::uint16_t>(size() - body_at));
  }

 private:
  /// A label-aligned tail of a written name, written at wire offset
  /// `offset`.
  struct SuffixRef {
    std::string_view tail;
    std::uint16_t offset;
  };

  /// Linear scan beats a map here: messages hold a handful of names, the
  /// entries are contiguous, and labels are lowercased at construction so
  /// byte equality is exact name equality.
  const SuffixRef* find_suffix(std::string_view tail) const noexcept {
    for (const SuffixRef& ref : offsets_) {
      if (ref.tail == tail) return &ref;
    }
    return nullptr;
  }

  /// The compression index is borrowed from a thread-local scratch so the
  /// steady-state encode touches the heap zero times. Safe because every
  /// entry point constructs exactly one Encoder and finishes with it
  /// before returning (encoders never nest); cleared on construction.
  static std::vector<SuffixRef>& scratch_offsets() {
    static thread_local std::vector<SuffixRef> scratch;
    return scratch;
  }

  bool compress_;
  std::vector<std::uint8_t>& out_;
  std::vector<SuffixRef>& offsets_;
};

/// The DNS header flags word for `h`.
std::uint16_t header_flags(const Header& h) noexcept {
  std::uint16_t flags = 0;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(h.opcode) & 0xF) << 11;
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(h.rcode) & 0xF;
  return flags;
}

void encode_rdata(Encoder& enc, const RData& rdata) {
  // Length placeholder, patched after the body is written.
  const std::size_t len_at = enc.size();
  enc.u16(0);
  const std::size_t body_at = enc.size();
  std::visit(
      [&enc](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ARecord>) {
          enc.u32(r.address.value());
        } else if constexpr (std::is_same_v<T, AaaaRecord>) {
          enc.bytes(r.address.bytes());
        } else if constexpr (std::is_same_v<T, NsRecord>) {
          enc.name(r.nameserver);
        } else if constexpr (std::is_same_v<T, CnameRecord>) {
          enc.name(r.target);
        } else if constexpr (std::is_same_v<T, SoaRecord>) {
          enc.name(r.mname);
          enc.name(r.rname);
          enc.u32(r.serial);
          enc.u32(r.refresh);
          enc.u32(r.retry);
          enc.u32(r.expire);
          enc.u32(r.minimum);
        } else if constexpr (std::is_same_v<T, TxtRecord>) {
          for (const auto& s : r.strings) {
            const auto chunk = s.substr(0, 255);
            enc.u8(static_cast<std::uint8_t>(chunk.size()));
            enc.bytes({reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size()});
          }
        } else if constexpr (std::is_same_v<T, MxRecord>) {
          enc.u16(r.preference);
          enc.name(r.exchange);
        } else if constexpr (std::is_same_v<T, PtrRecord>) {
          enc.name(r.target);
        } else if constexpr (std::is_same_v<T, SrvRecord>) {
          enc.u16(r.priority);
          enc.u16(r.weight);
          enc.u16(r.port);
          enc.name(r.target);
        } else if constexpr (std::is_same_v<T, CaaRecord>) {
          enc.u8(r.flags);
          enc.u8(static_cast<std::uint8_t>(r.tag.size()));
          enc.bytes({reinterpret_cast<const std::uint8_t*>(r.tag.data()), r.tag.size()});
          enc.bytes({reinterpret_cast<const std::uint8_t*>(r.value.data()), r.value.size()});
        } else {
          enc.bytes(r.data);
        }
      },
      rdata);
  enc.patch_u16(len_at, static_cast<std::uint16_t>(enc.size() - body_at));
}

void encode_rr(Encoder& enc, const ResourceRecord& rr) {
  enc.name(rr.name);
  enc.u16(static_cast<std::uint16_t>(rr.type()));
  enc.u16(static_cast<std::uint16_t>(rr.rclass));
  enc.u32(rr.ttl);
  encode_rdata(enc, rr.rdata);
}

void encode_opt(Encoder& enc, const Edns& edns, Rcode rcode) {
  enc.u8(0);  // root owner name
  enc.u16(static_cast<std::uint16_t>(RecordType::OPT));
  enc.u16(edns.udp_payload_size);  // CLASS = requestor payload size
  // TTL field: ext-rcode (8) | version (8) | DO (1) | Z (15)
  std::uint32_t ttl = 0;
  ttl |= static_cast<std::uint32_t>((static_cast<std::uint16_t>(rcode) >> 4) & 0xFF) << 24;
  ttl |= static_cast<std::uint32_t>(edns.version) << 16;
  if (edns.do_bit) ttl |= 0x8000;
  enc.u32(ttl);
  const std::size_t len_at = enc.size();
  enc.u16(0);
  const std::size_t body_at = enc.size();
  if (edns.client_subnet) {
    const auto& ecs = *edns.client_subnet;
    const std::size_t addr_bytes = (ecs.source_prefix_len + 7) / 8;
    enc.u16(8);  // OPTION-CODE: edns-client-subnet
    enc.u16(static_cast<std::uint16_t>(4 + addr_bytes));
    enc.u16(ecs.address.is_v6() ? 2 : 1);  // FAMILY
    enc.u8(ecs.source_prefix_len);
    enc.u8(ecs.scope_prefix_len);
    if (ecs.address.is_v6()) {
      enc.bytes(std::span(ecs.address.v6().bytes()).first(addr_bytes));
    } else {
      const auto o = ecs.address.v4().octets();
      enc.bytes(std::span(o).first(std::min<std::size_t>(addr_bytes, 4)));
    }
  }
  for (const auto& [code, payload] : edns.other_options) {
    enc.u16(code);
    enc.u16(static_cast<std::uint16_t>(payload.size()));
    enc.bytes(payload);
  }
  enc.patch_u16(len_at, static_cast<std::uint16_t>(enc.size() - body_at));
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> wire) : wire_(wire) {}

  std::size_t pos() const noexcept { return pos_; }
  bool at_end() const noexcept { return pos_ >= wire_.size(); }
  std::size_t remaining() const noexcept { return wire_.size() - pos_; }

  bool u8(std::uint8_t& out) noexcept {
    if (remaining() < 1) return false;
    out = wire_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& out) noexcept {
    if (remaining() < 2) return false;
    out = static_cast<std::uint16_t>((wire_[pos_] << 8) | wire_[pos_ + 1]);
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& out) noexcept {
    if (remaining() < 4) return false;
    out = (static_cast<std::uint32_t>(wire_[pos_]) << 24) |
          (static_cast<std::uint32_t>(wire_[pos_ + 1]) << 16) |
          (static_cast<std::uint32_t>(wire_[pos_ + 2]) << 8) |
          static_cast<std::uint32_t>(wire_[pos_ + 3]);
    pos_ += 4;
    return true;
  }
  bool bytes(std::size_t n, std::span<const std::uint8_t>& out) noexcept {
    if (remaining() < n) return false;
    out = wire_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  bool skip(std::size_t n) noexcept {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  /// Reads a possibly-compressed name starting at the cursor. Pointers
  /// must point strictly backwards; at most one chain of kMaxPointers is
  /// followed, which both bounds work and rejects loops.
  bool name(DnsName& out) noexcept {
    // Labels gather on the stack (a compressed name is scattered across
    // the packet); DnsName::from_wire lowercases them into the name, in
    // place for any name of up to DnsName::kInlineBytes.
    std::uint8_t labels[255];
    std::size_t size = 0;
    std::size_t cursor = pos_;
    std::size_t after_first_pointer = 0;
    bool jumped = false;
    int pointers = 0;
    constexpr int kMaxPointers = 32;
    while (true) {
      if (cursor >= wire_.size()) return false;
      const std::uint8_t len = wire_[cursor];
      if ((len & 0xC0) == 0xC0) {
        if (cursor + 1 >= wire_.size()) return false;
        if (++pointers > kMaxPointers) return false;
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3F) << 8) | wire_[cursor + 1];
        if (target >= cursor) return false;  // forward/self pointer: reject
        if (!jumped) {
          after_first_pointer = cursor + 2;
          jumped = true;
        }
        cursor = target;
        continue;
      }
      if ((len & 0xC0) != 0) return false;  // 0x40/0x80 label types unsupported
      if (len == 0) {
        ++cursor;
        break;
      }
      if (cursor + 1 + len > wire_.size()) return false;
      if (size + 1 + len > 254) return false;  // 255 wire octets with the root
      std::memcpy(labels + size, &wire_[cursor], 1 + len);
      size += 1 + len;
      cursor += 1 + len;
    }
    pos_ = jumped ? after_first_pointer : cursor;
    auto parsed = DnsName::from_wire({labels, size});
    if (!parsed) return false;
    out = *std::move(parsed);
    return true;
  }

 private:
  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
};

Result<Header> decode_header(Decoder& dec, std::uint16_t counts[4]) {
  Header h;
  std::uint16_t flags = 0;
  if (!dec.u16(h.id) || !dec.u16(flags)) return Result<Header>::failure("short header");
  h.qr = (flags & 0x8000) != 0;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  h.aa = (flags & 0x0400) != 0;
  h.tc = (flags & 0x0200) != 0;
  h.rd = (flags & 0x0100) != 0;
  h.ra = (flags & 0x0080) != 0;
  h.rcode = static_cast<Rcode>(flags & 0xF);
  for (int i = 0; i < 4; ++i) {
    if (!dec.u16(counts[i])) return Result<Header>::failure("short header counts");
  }
  return h;
}

Result<RData> decode_rdata(Decoder& dec, std::uint16_t type, std::uint16_t rdlen) {
  const std::size_t end = dec.pos() + rdlen;
  auto fail = [](const char* what) { return Result<RData>::failure(what); };
  auto finish = [&](RData rd) -> Result<RData> {
    if (dec.pos() != end) return Result<RData>::failure("rdata length mismatch");
    return rd;
  };
  switch (static_cast<RecordType>(type)) {
    case RecordType::A: {
      std::uint32_t v = 0;
      if (rdlen != 4 || !dec.u32(v)) return fail("bad A rdata");
      return finish(ARecord{Ipv4Addr(v)});
    }
    case RecordType::AAAA: {
      std::span<const std::uint8_t> b;
      if (rdlen != 16 || !dec.bytes(16, b)) return fail("bad AAAA rdata");
      std::array<std::uint8_t, 16> arr{};
      std::copy(b.begin(), b.end(), arr.begin());
      return finish(AaaaRecord{Ipv6Addr(arr)});
    }
    case RecordType::NS: {
      NsRecord r;
      if (!dec.name(r.nameserver)) return fail("bad NS rdata");
      return finish(r);
    }
    case RecordType::CNAME: {
      CnameRecord r;
      if (!dec.name(r.target)) return fail("bad CNAME rdata");
      return finish(r);
    }
    case RecordType::PTR: {
      PtrRecord r;
      if (!dec.name(r.target)) return fail("bad PTR rdata");
      return finish(r);
    }
    case RecordType::SOA: {
      SoaRecord r;
      if (!dec.name(r.mname) || !dec.name(r.rname) || !dec.u32(r.serial) ||
          !dec.u32(r.refresh) || !dec.u32(r.retry) || !dec.u32(r.expire) ||
          !dec.u32(r.minimum)) {
        return fail("bad SOA rdata");
      }
      return finish(r);
    }
    case RecordType::TXT: {
      TxtRecord r;
      while (dec.pos() < end) {
        std::uint8_t len = 0;
        std::span<const std::uint8_t> b;
        if (!dec.u8(len) || dec.pos() + len > end || !dec.bytes(len, b)) {
          return fail("bad TXT rdata");
        }
        r.strings.emplace_back(reinterpret_cast<const char*>(b.data()), b.size());
      }
      return finish(r);
    }
    case RecordType::MX: {
      MxRecord r;
      if (!dec.u16(r.preference) || !dec.name(r.exchange)) return fail("bad MX rdata");
      return finish(r);
    }
    case RecordType::SRV: {
      SrvRecord r;
      if (!dec.u16(r.priority) || !dec.u16(r.weight) || !dec.u16(r.port) ||
          !dec.name(r.target)) {
        return fail("bad SRV rdata");
      }
      return finish(r);
    }
    case RecordType::CAA: {
      CaaRecord r;
      std::uint8_t taglen = 0;
      std::span<const std::uint8_t> tag, value;
      if (!dec.u8(r.flags) || !dec.u8(taglen) || dec.pos() + taglen > end ||
          !dec.bytes(taglen, tag)) {
        return fail("bad CAA rdata");
      }
      if (!dec.bytes(end - dec.pos(), value)) return fail("bad CAA rdata");
      r.tag.assign(reinterpret_cast<const char*>(tag.data()), tag.size());
      r.value.assign(reinterpret_cast<const char*>(value.data()), value.size());
      return finish(r);
    }
    default: {
      RawRecord r;
      r.type = type;
      std::span<const std::uint8_t> b;
      if (!dec.bytes(rdlen, b)) return fail("bad raw rdata");
      r.data.assign(b.begin(), b.end());
      return finish(r);
    }
  }
}

Result<Edns> decode_opt(Decoder& dec, Header& header, std::uint16_t rclass, std::uint32_t ttl,
                        std::uint16_t rdlen) {
  Edns edns;
  edns.udp_payload_size = rclass;
  edns.extended_rcode_high = static_cast<std::uint8_t>(ttl >> 24);
  edns.version = static_cast<std::uint8_t>(ttl >> 16);
  edns.do_bit = (ttl & 0x8000) != 0;
  if (edns.extended_rcode_high != 0) {
    header.rcode = static_cast<Rcode>((edns.extended_rcode_high << 4) |
                                      static_cast<std::uint8_t>(header.rcode));
  }
  const std::size_t end = dec.pos() + rdlen;
  while (dec.pos() < end) {
    std::uint16_t code = 0, optlen = 0;
    if (!dec.u16(code) || !dec.u16(optlen) || dec.pos() + optlen > end) {
      return Result<Edns>::failure("bad OPT option");
    }
    std::span<const std::uint8_t> payload;
    if (!dec.bytes(optlen, payload)) return Result<Edns>::failure("bad OPT option body");
    if (code == 8) {  // edns-client-subnet
      if (payload.size() < 4) return Result<Edns>::failure("short ECS option");
      const std::uint16_t family = static_cast<std::uint16_t>((payload[0] << 8) | payload[1]);
      ClientSubnet ecs;
      ecs.source_prefix_len = payload[2];
      ecs.scope_prefix_len = payload[3];
      const auto addr = payload.subspan(4);
      if (family == 1) {
        if (ecs.source_prefix_len > 32 || addr.size() > 4) {
          return Result<Edns>::failure("bad ECS v4");
        }
        std::array<std::uint8_t, 4> o{};
        std::copy(addr.begin(), addr.end(), o.begin());
        ecs.address = IpAddr(Ipv4Addr(o[0], o[1], o[2], o[3]));
      } else if (family == 2) {
        if (ecs.source_prefix_len > 128 || addr.size() > 16) {
          return Result<Edns>::failure("bad ECS v6");
        }
        std::array<std::uint8_t, 16> b{};
        std::copy(addr.begin(), addr.end(), b.begin());
        ecs.address = IpAddr(Ipv6Addr(b));
      } else {
        return Result<Edns>::failure("unknown ECS family");
      }
      edns.client_subnet = ecs;
    } else {
      edns.other_options.emplace_back(code,
                                      std::vector<std::uint8_t>(payload.begin(), payload.end()));
    }
  }
  return edns;
}

}  // namespace

void encode_into(const Message& message, const EncodeOptions& options,
                 std::vector<std::uint8_t>& out) {
  // Encode greedily; if the limit is exceeded, retry with whole trailing
  // sections removed and TC set. Section-granular truncation is simpler
  // than RRset-granular and adequate for both production behaviour
  // modelling and tests.
  for (int drop = 0; drop <= 3; ++drop) {
    Encoder enc(out, options.compress);
    Header h = message.header;
    if (drop > 0) h.tc = true;

    const bool keep_answers = drop < 3;
    const bool keep_auth = drop < 2;
    const bool keep_additional = drop < 1;
    const std::size_t n_ans = keep_answers ? message.answers.size() : 0;
    const std::size_t n_auth = keep_auth ? message.authorities.size() : 0;
    const std::size_t n_add = keep_additional ? message.additionals.size() : 0;

    enc.u16(h.id);
    enc.u16(header_flags(h));
    enc.u16(static_cast<std::uint16_t>(message.questions.size()));
    enc.u16(static_cast<std::uint16_t>(n_ans));
    enc.u16(static_cast<std::uint16_t>(n_auth));
    enc.u16(static_cast<std::uint16_t>(n_add + (message.edns ? 1 : 0)));

    for (const auto& q : message.questions) {
      enc.name(q.name);
      enc.u16(static_cast<std::uint16_t>(q.qtype));
      enc.u16(static_cast<std::uint16_t>(q.qclass));
    }
    for (std::size_t i = 0; i < n_ans; ++i) encode_rr(enc, message.answers[i]);
    for (std::size_t i = 0; i < n_auth; ++i) encode_rr(enc, message.authorities[i]);
    for (std::size_t i = 0; i < n_add; ++i) encode_rr(enc, message.additionals[i]);
    if (message.edns) encode_opt(enc, *message.edns, h.rcode);

    if (enc.size() <= options.max_size || drop == 3) return;
  }
}

std::vector<std::uint8_t> encode(const Message& message, const EncodeOptions& options) {
  std::vector<std::uint8_t> out;
  encode_into(message, options, out);
  return out;
}

void encode_fragments(const FragmentMessage& message, const EncodeOptions& options,
                      std::vector<std::uint8_t>& out) {
  const bool has_edns = message.edns && message.edns->has_value();
  const auto span_count = [](std::span<const FragmentSpan> spans) {
    std::size_t n = 0;
    for (const auto& s : spans) n += s.size();
    return n;
  };
  const std::size_t all_ans = span_count(message.answers);
  const std::size_t all_auth = span_count(message.authorities);
  const std::size_t all_add = span_count(message.additionals);

  // Same whole-section truncation ladder as encode_into(): additional,
  // then authority, then answers are dropped until the message fits.
  for (int drop = 0; drop <= 3; ++drop) {
    Encoder enc(out, options.compress);
    Header h = message.header;
    if (drop > 0) h.tc = true;

    const std::size_t n_ans = drop < 3 ? all_ans : 0;
    const std::size_t n_auth = drop < 2 ? all_auth : 0;
    const std::size_t n_add = drop < 1 ? all_add : 0;

    enc.u16(h.id);
    enc.u16(header_flags(h));
    enc.u16(message.question ? 1 : 0);
    enc.u16(static_cast<std::uint16_t>(n_ans));
    enc.u16(static_cast<std::uint16_t>(n_auth));
    enc.u16(static_cast<std::uint16_t>(n_add + (has_edns ? 1 : 0)));

    if (message.question) {
      enc.name(message.question->name);
      enc.u16(static_cast<std::uint16_t>(message.question->qtype));
      enc.u16(static_cast<std::uint16_t>(message.question->qclass));
    }
    const auto emit = [&enc](std::span<const FragmentSpan> spans) {
      for (const auto& s : spans) {
        for (const auto& f : s.fragments) enc.fragment(f, s.owner_override);
      }
    };
    if (n_ans) emit(message.answers);
    if (n_auth) emit(message.authorities);
    if (n_add) emit(message.additionals);
    if (has_edns) encode_opt(enc, **message.edns, h.rcode);

    if (enc.size() <= options.max_size || drop == 3) return;
  }
}

WireFragment make_wire_fragment(const ResourceRecord& rr) {
  WireFragment f;
  f.owner = &rr.name;
  const std::uint16_t type = static_cast<std::uint16_t>(rr.type());
  f.fixed[0] = static_cast<std::uint8_t>(type >> 8);
  f.fixed[1] = static_cast<std::uint8_t>(type);
  const std::uint16_t rclass = static_cast<std::uint16_t>(rr.rclass);
  f.fixed[2] = static_cast<std::uint8_t>(rclass >> 8);
  f.fixed[3] = static_cast<std::uint8_t>(rclass);
  f.set_ttl(rr.ttl);

  // RDATA splits at each compressible name field, mirroring
  // encode_rdata()'s layout exactly; everything else becomes literal
  // bytes computed once here.
  auto lit_u8 = [](std::vector<std::uint8_t>& v, std::uint8_t x) { v.push_back(x); };
  auto lit_u16 = [](std::vector<std::uint8_t>& v, std::uint16_t x) {
    v.push_back(static_cast<std::uint8_t>(x >> 8));
    v.push_back(static_cast<std::uint8_t>(x));
  };
  auto lit_u32 = [&lit_u16](std::vector<std::uint8_t>& v, std::uint32_t x) {
    lit_u16(v, static_cast<std::uint16_t>(x >> 16));
    lit_u16(v, static_cast<std::uint16_t>(x));
  };
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        WireFragment::RdataOp op;
        if constexpr (std::is_same_v<T, ARecord>) {
          lit_u32(op.literal, r.address.value());
        } else if constexpr (std::is_same_v<T, AaaaRecord>) {
          const auto b = r.address.bytes();
          op.literal.assign(b.begin(), b.end());
        } else if constexpr (std::is_same_v<T, NsRecord>) {
          op.name = &r.nameserver;
        } else if constexpr (std::is_same_v<T, CnameRecord>) {
          op.name = &r.target;
        } else if constexpr (std::is_same_v<T, PtrRecord>) {
          op.name = &r.target;
        } else if constexpr (std::is_same_v<T, SoaRecord>) {
          op.name = &r.mname;
          f.rdata.push_back(std::move(op));
          op = {};
          op.name = &r.rname;
          f.rdata.push_back(std::move(op));
          op = {};
          lit_u32(op.literal, r.serial);
          lit_u32(op.literal, r.refresh);
          lit_u32(op.literal, r.retry);
          lit_u32(op.literal, r.expire);
          lit_u32(op.literal, r.minimum);
        } else if constexpr (std::is_same_v<T, TxtRecord>) {
          for (const auto& s : r.strings) {
            const auto chunk = s.substr(0, 255);
            lit_u8(op.literal, static_cast<std::uint8_t>(chunk.size()));
            op.literal.insert(op.literal.end(), chunk.begin(), chunk.end());
          }
        } else if constexpr (std::is_same_v<T, MxRecord>) {
          lit_u16(op.literal, r.preference);
          op.name = &r.exchange;
        } else if constexpr (std::is_same_v<T, SrvRecord>) {
          lit_u16(op.literal, r.priority);
          lit_u16(op.literal, r.weight);
          lit_u16(op.literal, r.port);
          op.name = &r.target;
        } else if constexpr (std::is_same_v<T, CaaRecord>) {
          lit_u8(op.literal, r.flags);
          lit_u8(op.literal, static_cast<std::uint8_t>(r.tag.size()));
          op.literal.insert(op.literal.end(), r.tag.begin(), r.tag.end());
          op.literal.insert(op.literal.end(), r.value.begin(), r.value.end());
        } else {
          op.literal.assign(r.data.begin(), r.data.end());
        }
        f.rdata.push_back(std::move(op));
      },
      rr.rdata);
  return f;
}

Result<Message> decode(std::span<const std::uint8_t> wire) {
  Decoder dec(wire);
  std::uint16_t counts[4] = {};
  auto header = decode_header(dec, counts);
  if (!header) return Result<Message>::failure(header.error());
  Message m;
  m.header = header.value();

  for (std::uint16_t i = 0; i < counts[0]; ++i) {
    Question q;
    std::uint16_t qtype = 0, qclass = 0;
    if (!dec.name(q.name) || !dec.u16(qtype) || !dec.u16(qclass)) {
      return Result<Message>::failure("bad question");
    }
    q.qtype = static_cast<RecordType>(qtype);
    q.qclass = static_cast<RecordClass>(qclass);
    m.questions.push_back(std::move(q));
  }

  auto decode_section = [&](std::uint16_t count,
                            std::vector<ResourceRecord>& out) -> Result<bool> {
    for (std::uint16_t i = 0; i < count; ++i) {
      DnsName name;
      std::uint16_t type = 0, rclass = 0, rdlen = 0;
      std::uint32_t ttl = 0;
      if (!dec.name(name) || !dec.u16(type) || !dec.u16(rclass) || !dec.u32(ttl) ||
          !dec.u16(rdlen) || dec.remaining() < rdlen) {
        return Result<bool>::failure("bad record header");
      }
      if (static_cast<RecordType>(type) == RecordType::OPT) {
        if (m.edns) return Result<bool>::failure("duplicate OPT record");
        auto edns = decode_opt(dec, m.header, rclass, ttl, rdlen);
        if (!edns) return Result<bool>::failure(edns.error());
        m.edns = edns.value();
        continue;
      }
      auto rdata = decode_rdata(dec, type, rdlen);
      if (!rdata) return Result<bool>::failure(rdata.error());
      ResourceRecord rr;
      rr.name = std::move(name);
      rr.rclass = static_cast<RecordClass>(rclass);
      rr.ttl = ttl;
      rr.rdata = std::move(rdata).take();
      out.push_back(std::move(rr));
    }
    return true;
  };

  if (auto r = decode_section(counts[1], m.answers); !r) {
    return Result<Message>::failure(r.error());
  }
  if (auto r = decode_section(counts[2], m.authorities); !r) {
    return Result<Message>::failure(r.error());
  }
  if (auto r = decode_section(counts[3], m.additionals); !r) {
    return Result<Message>::failure(r.error());
  }
  return m;
}

Result<QueryView> decode_query_view(std::span<const std::uint8_t> wire) {
  Decoder dec(wire);
  std::uint16_t counts[4] = {};
  auto header = decode_header(dec, counts);
  if (!header) return Result<QueryView>::failure(header.error());
  QueryView view;
  view.header = header.value();
  view.qdcount = counts[0];
  view.ancount = counts[1];
  view.nscount = counts[2];
  view.arcount = counts[3];
  if (view.qdcount == 0) return Result<QueryView>::failure("no question");
  std::uint16_t qtype = 0, qclass = 0;
  if (!dec.name(view.question.name) || !dec.u16(qtype) || !dec.u16(qclass)) {
    return Result<QueryView>::failure("bad question");
  }
  view.question.qtype = static_cast<RecordType>(qtype);
  view.question.qclass = static_cast<RecordClass>(qclass);
  // Walk any further questions (a conforming query has exactly one; the
  // responder answers FORMERR otherwise) so questions_end is exact.
  for (std::uint16_t i = 1; i < view.qdcount; ++i) {
    DnsName ignored;
    std::uint16_t t = 0, c = 0;
    if (!dec.name(ignored) || !dec.u16(t) || !dec.u16(c)) {
      return Result<QueryView>::failure("bad question");
    }
  }
  view.questions_end = dec.pos();
  return view;
}

Result<bool> decode_query_edns(std::span<const std::uint8_t> wire, QueryView& view) {
  if (view.tail_parsed) return true;
  Decoder dec(wire);
  if (!dec.skip(view.questions_end)) return Result<bool>::failure("bad question offset");
  const std::size_t records = static_cast<std::size_t>(view.ancount) +
                              static_cast<std::size_t>(view.nscount) +
                              static_cast<std::size_t>(view.arcount);
  for (std::size_t i = 0; i < records; ++i) {
    DnsName name;
    std::uint16_t type = 0, rclass = 0, rdlen = 0;
    std::uint32_t ttl = 0;
    if (!dec.name(name) || !dec.u16(type) || !dec.u16(rclass) || !dec.u32(ttl) ||
        !dec.u16(rdlen) || dec.remaining() < rdlen) {
      return Result<bool>::failure("bad record header");
    }
    if (static_cast<RecordType>(type) == RecordType::OPT) {
      if (view.edns) return Result<bool>::failure("duplicate OPT record");
      auto edns = decode_opt(dec, view.header, rclass, ttl, rdlen);
      if (!edns) return Result<bool>::failure(edns.error());
      view.edns = edns.value();
    } else if (!dec.skip(rdlen)) {
      return Result<bool>::failure("bad record body");
    }
  }
  view.tail_parsed = true;
  return true;
}

Result<Question> decode_question(std::span<const std::uint8_t> wire) {
  Decoder dec(wire);
  std::uint16_t counts[4] = {};
  auto header = decode_header(dec, counts);
  if (!header) return Result<Question>::failure(header.error());
  if (counts[0] == 0) return Result<Question>::failure("no question");
  Question q;
  std::uint16_t qtype = 0, qclass = 0;
  if (!dec.name(q.name) || !dec.u16(qtype) || !dec.u16(qclass)) {
    return Result<Question>::failure("bad question");
  }
  q.qtype = static_cast<RecordType>(qtype);
  q.qclass = static_cast<RecordClass>(qclass);
  return q;
}

}  // namespace akadns::dns
