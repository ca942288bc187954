#include "fabric/ring.h"

#include <algorithm>

#include "util/codec.h"
#include "util/str.h"

namespace relcomp {
namespace {
constexpr char kRingMagic[] = "relcomp-fabric/1";
}  // namespace

uint64_t FabricRing::Hash(uint64_t seed, std::string_view data) {
  uint64_t h = Fnv1a(Fnv1aU64(kFnvOffsetBasis, seed), data);
  // FNV-1a alone avalanches poorly into the high bits, and the ring
  // partitions by exactly those bits — structured keys ("relcheck-
  // <fp>-q<i>") would clump onto a few arcs. A murmur3-style finalizer
  // fixes the spread; it is part of the placement contract like the
  // rest of this function, so it can never change for existing roots.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

FabricRing FabricRing::Make(std::vector<std::string> endpoints,
                            uint64_t seed, uint32_t vnodes) {
  FabricRing ring;
  ring.seed = seed;
  ring.vnodes = vnodes == 0 ? 1 : vnodes;
  ring.endpoints = std::move(endpoints);
  return ring;
}

FabricRing FabricRing::Singleton(const std::string& address) {
  return Make({address});
}

void FabricRing::EnsurePoints() const {
  if (!points_.empty() && points_seed_ == seed &&
      points_vnodes_ == vnodes && points_shards_ == endpoints.size()) {
    return;
  }
  points_.clear();
  points_.reserve(endpoints.size() * vnodes);
  for (uint32_t s = 0; s < endpoints.size(); ++s) {
    for (uint32_t v = 0; v < vnodes; ++v) {
      points_.emplace_back(Hash(seed, StrCat("shard-", s, "#", v)), s);
    }
  }
  std::sort(points_.begin(), points_.end());
  points_seed_ = seed;
  points_vnodes_ = vnodes;
  points_shards_ = endpoints.size();
}

size_t FabricRing::ShardForKey(std::string_view key) const {
  EnsurePoints();
  const uint64_t h = Hash(seed, key);
  // First ring point clockwise of the key's hash, wrapping at the top.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const std::pair<uint64_t, uint32_t>& point, uint64_t value) {
        return point.first < value;
      });
  if (it == points_.end()) it = points_.begin();
  return it->second;
}

std::vector<size_t> FabricRing::OrphanedShards() const {
  std::vector<size_t> out;
  for (size_t s = 0; s < endpoints.size(); ++s) {
    if (endpoints[s].empty()) out.push_back(s);
  }
  return out;
}

std::string FabricRing::Serialize() const {
  std::string out =
      StrCat(kRingMagic, " epoch ", epoch, " seed ", seed, " vnodes ",
             vnodes, " shards ", endpoints.size(), " ");
  for (const std::string& endpoint : endpoints) AppendSized(endpoint, &out);
  return out;
}

Result<FabricRing> FabricRing::Deserialize(std::string_view text) {
  CodecReader r(kRingMagic, text);
  FabricRing ring;
  uint64_t vnodes = 0;
  uint64_t shards = 0;
  RELCOMP_RETURN_NOT_OK(r.Magic(kRingMagic));
  const std::pair<const char*, uint64_t*> header[] = {
      {"epoch ", &ring.epoch},
      {"seed ", &ring.seed},
      {"vnodes ", &vnodes},
      {"shards ", &shards}};
  for (const auto& [label, value] : header) {
    RELCOMP_RETURN_NOT_OK(r.Expect(label));
    RELCOMP_ASSIGN_OR_RETURN(*value, r.U64());
    RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  }
  if (vnodes == 0 || vnodes > kMaxVnodes) return r.Malformed("bad vnodes");
  if (shards == 0 || shards > kMaxShards) {
    return r.Malformed("bad shard count");
  }
  ring.vnodes = static_cast<uint32_t>(vnodes);
  ring.endpoints.reserve(static_cast<size_t>(shards));
  for (uint64_t s = 0; s < shards; ++s) {
    RELCOMP_ASSIGN_OR_RETURN(const std::string_view endpoint,
                             r.Sized(kMaxEndpointLength));
    ring.endpoints.emplace_back(endpoint);
  }
  RELCOMP_RETURN_NOT_OK(r.End());
  return ring;
}

}  // namespace relcomp
