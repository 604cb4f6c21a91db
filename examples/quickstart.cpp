// Quickstart: host a zone on an authoritative nameserver and answer
// real wire-format DNS queries — the library's core loop in ~80 lines.
//
//   1. parse a master file into a Zone;
//   2. publish it to a ZoneStore (the nameserver's view of metadata);
//   3. stand up a Nameserver and push wire-format queries through it;
//   4. resolve through an IterativeResolver, exactly as a recursive
//      resolver on the Internet would.

#include <cstdio>

#include "dns/wire.hpp"
#include "resolver/iterative_resolver.hpp"
#include "server/nameserver.hpp"
#include "zone/zone_parser.hpp"

using namespace akadns;

namespace {

constexpr const char* kZoneFile = R"(
$ORIGIN ex.com.
$TTL 3600
@       IN SOA ns1.ex.com. hostmaster.ex.com. 2026070701 7200 900 1209600 300
@       IN NS  ns1
ns1     IN A   10.0.0.1
www 300 IN A   93.184.216.34
www     IN AAAA 2001:db8::34
ftp     IN CNAME www
@       IN MX  10 mail
mail    IN A   10.0.0.25
@       IN TXT "hosted on the Akamai DNS reproduction"
*.apps  IN A   10.7.7.7
)";

void show(const char* title, const dns::Message& message) {
  std::printf("--- %s ---\n%s\n", title, message.to_string().c_str());
}

}  // namespace

int main() {
  // 1. Parse and validate the enterprise zone (the Management Portal path).
  auto parsed = zone::parse_master_file(kZoneFile, {});
  if (!parsed) {
    std::fprintf(stderr, "zone parse error: %s\n", parsed.error().c_str());
    return 1;
  }
  zone::Zone zone = std::move(parsed).take();
  for (const auto& problem : zone.validate()) {
    std::fprintf(stderr, "zone problem: %s\n", problem.c_str());
  }
  std::printf("loaded zone %s serial %u with %zu records\n\n",
              zone.apex().to_string().c_str(), zone.serial(), zone.record_count());

  // 2. Publish to the store the nameserver serves from.
  zone::ZoneStore store;
  store.publish(std::move(zone));

  // 3. A nameserver instance answering wire-format queries.
  server::Nameserver nameserver({.id = "quickstart-ns"}, store);
  std::vector<dns::Message> responses;
  nameserver.set_response_span_sink([&](const Endpoint&, std::span<const std::uint8_t> wire) {
    responses.push_back(dns::decode(wire).take());
  });

  const Endpoint resolver_endpoint{*IpAddr::parse("198.51.100.53"), 5353};
  const auto now = SimTime::origin();
  std::uint16_t id = 1;
  for (const char* qname : {"www.ex.com", "ftp.ex.com", "deep.in.apps.ex.com",
                            "missing.ex.com", "other-zone.org"}) {
    const auto query = dns::make_query(id++, dns::DnsName::from(qname), dns::RecordType::A);
    nameserver.receive(dns::encode(query), resolver_endpoint, 57, now);
  }
  nameserver.process(now);
  for (const auto& response : responses) {
    show(response.question().name.to_string().c_str(), response);
  }

  // 4. Resolve through a caching iterative resolver (cache hit second time).
  resolver::IterativeResolver iterative(
      {}, [&](const dns::Message& query, const IpAddr&) -> std::optional<resolver::UpstreamReply> {
        return resolver::UpstreamReply{
            nameserver.responder().respond(query, resolver_endpoint), Duration::millis(12)};
      });
  iterative.add_hint(dns::DnsName::from("ex.com"), *IpAddr::parse("10.0.0.1"));

  const auto first =
      iterative.resolve(dns::DnsName::from("www.ex.com"), dns::RecordType::A, now);
  const auto second = iterative.resolve(dns::DnsName::from("www.ex.com"), dns::RecordType::A,
                                        now + Duration::seconds(5));
  std::printf("iterative resolve #1: rcode=%s elapsed=%.1fms upstream=%d\n",
              dns::to_string(first.rcode).c_str(), first.elapsed.to_millis(),
              first.upstream_queries);
  std::printf("iterative resolve #2: rcode=%s elapsed=%.1fms from_cache=%s\n",
              dns::to_string(second.rcode).c_str(), second.elapsed.to_millis(),
              second.from_cache ? "yes" : "no");
  return 0;
}
