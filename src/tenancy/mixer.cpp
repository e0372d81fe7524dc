#include "tenancy/mixer.hpp"

#include <cstdio>
#include <unordered_map>

#include "trace/traced_memory.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace rmcc::tenancy
{

namespace
{

/** SplitMix64 finalizer: per-tenant phase offsets. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

TenantMixer::TenantMixer(const MixSpec &spec)
    : spec_(spec),
      bases_([&spec] {
          if (spec.archetypes.empty())
              util::fatal("TenantMixer: no archetype workloads");
          if (spec.records == 0 || spec.component_records == 0)
              util::fatal("TenantMixer: zero-length mix or component");
          std::vector<trace::TraceBuffer> v;
          v.reserve(spec.archetypes.size());
          for (std::size_t a = 0; a < spec.archetypes.size(); ++a)
              v.push_back(wl::generateTrace(*spec.archetypes[a],
                                            spec.component_records,
                                            spec.seed + a));
          return v;
      }()),
      map_(spec.cfg.tenants, [this] {
          addr::Addr max_vaddr = 0;
          for (const trace::TraceBuffer &b : bases_)
              for (const trace::Record &r : b.records())
                  if (r.vaddr > max_vaddr)
                      max_vaddr = static_cast<addr::Addr>(r.vaddr);
          return max_vaddr;
      }())
{
    for (std::size_t a = 0; a < bases_.size(); ++a)
        if (bases_[a].size() == 0)
            util::fatal("TenantMixer: archetype '%s' produced an empty "
                        "trace",
                        spec_.archetypes[a]->name.c_str());
}

void
TenantMixer::generate(trace::TraceSink &sink) const
{
    util::Rng rng(spec_.seed ^ 0x7e7a);
    util::ZipfSampler zipf(spec_.cfg.tenants, spec_.cfg.skew);
    // Per-tenant replay positions, lazily seeded with a per-tenant phase
    // offset so tenants sharing an archetype are decorrelated.  A hash
    // map because the tenant count may be in the millions while only the
    // drawn tenants ever materialize.
    std::unordered_map<std::uint64_t, std::uint64_t> pos;
    trace::SinkStager out(sink);
    for (std::size_t i = 0; i < spec_.records && !out.full(); ++i) {
        std::uint64_t t = zipf(rng);
        if (spec_.storm_share > 0.0 && rng.nextBool(spec_.storm_share))
            t = 0; // the storm rides on top of the Zipf draw
        const trace::TraceBuffer &base =
            bases_[t % bases_.size()];
        auto it = pos.find(t);
        if (it == pos.end())
            it = pos.emplace(t, mix64(spec_.seed ^ t) % base.size())
                     .first;
        const trace::Record &rec = base.records()[it->second];
        it->second = (it->second + 1) % base.size();
        out.push(map_.tag(t, static_cast<addr::Addr>(rec.vaddr)),
                 rec.is_write != 0,
                 static_cast<std::uint32_t>(rec.inst_gap));
    }
    out.flush();
}

double
TenantMixer::expectedShare(std::uint64_t tenant) const
{
    util::ZipfSampler zipf(spec_.cfg.tenants, spec_.cfg.skew);
    const double base = zipf.mass(tenant);
    // A storm draw replaces the Zipf draw with tenant 0.
    const double kept = base * (1.0 - spec_.storm_share);
    return tenant == 0 ? kept + spec_.storm_share : kept;
}

std::string
TenantMixer::label() const
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "mix%llut-z%.3f-%s-s%.2f",
                  static_cast<unsigned long long>(spec_.cfg.tenants),
                  spec_.cfg.skew,
                  spec_.cfg.isolation == IsolationMode::Strict ? "strict"
                                                               : "shared",
                  spec_.storm_share);
    std::string name(buf);
    for (const wl::Workload *w : spec_.archetypes)
        name += "-" + w->name;
    return name;
}

TenantMix
generateMixHandle(const MixSpec &spec)
{
    const TenantMixer mixer(spec);
    return {wl::generateSpillable(
                mixer.label(), spec.records, spec.seed,
                [&](trace::TraceSink &sink) { mixer.generate(sink); }),
            mixer.addressMap().tagShift()};
}

} // namespace rmcc::tenancy
