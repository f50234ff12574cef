#include "graph/Datasets.hpp"

#include <algorithm>
#include <cstdio>

#include "graph/Generators.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

std::string
DatasetScale::describe() const
{
    if (isFull())
        return "full";
    char buf[96];
    if (featureCap > 0)
        std::snprintf(buf, sizeof(buf), "V/%ld E/%ld f<=%ld",
                      (long)nodeDivisor, (long)edgeDivisor,
                      (long)featureCap);
    else
        std::snprintf(buf, sizeof(buf), "V/%ld E/%ld",
                      (long)nodeDivisor, (long)edgeDivisor);
    return buf;
}

DatasetScale
defaultSimScale(DatasetId id)
{
    switch (id) {
      case DatasetId::Cora:
      case DatasetId::CiteSeer:
        return DatasetScale::full();
      case DatasetId::PubMed:
        return {1, 1, 128};
      case DatasetId::Reddit:
        return {16, 64, 64};
      case DatasetId::LiveJournal:
        return {64, 256, 0};
      default:
        panic("unknown DatasetId in defaultSimScale");
    }
}

DatasetScale
defaultFunctionalScale(DatasetId id)
{
    switch (id) {
      case DatasetId::Cora:
      case DatasetId::CiteSeer:
      case DatasetId::PubMed:
        return DatasetScale::full();
      case DatasetId::Reddit:
        // The MP pipelines materialize an [|E| x f] message buffer
        // (Fig. 2); at full Reddit scale that alone is tens of GiB.
        // V/2 E/8 f<=64 keeps the largest transient under ~400 MiB
        // while preserving the heavy-tailed degree structure.
        return {2, 8, 64};
      case DatasetId::LiveJournal:
        return {8, 16, 0};
      default:
        panic("unknown DatasetId in defaultFunctionalScale");
    }
}

Graph
loadDataset(DatasetId id, const DatasetScale &scale, uint64_t seed)
{
    const DatasetInfo &info = datasetInfo(id);
    const int64_t nodes =
        std::max<int64_t>(16, info.nodes / scale.nodeDivisor);
    const int64_t edges =
        std::max<int64_t>(16, info.edges / scale.edgeDivisor);
    int64_t flen = info.featureLen;
    if (scale.featureCap > 0)
        flen = std::min(flen, scale.featureCap);

    // Seed mixes in the dataset id so different datasets at the same
    // user seed are decorrelated.
    Rng rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(info.id));

    RmatParams params;
    params.nodes = nodes;
    params.edges = edges;
    params.a = info.powerLawSkew;
    const double rest = 1.0 - info.powerLawSkew;
    params.b = rest * 0.45;
    params.c = rest * 0.45;
    // Very large graphs skip dedup. The cutoff stays because moving
    // it would change the full-scale graphs.
    params.dedup = edges < 20'000'000;

    Graph g = generateRmat(params, rng);
    fillFeatures(g, flen, rng);
    g.name = info.name;
    g.checkInvariants();
    informVerbose("loaded %s (%s)", g.summary().c_str(),
                  scale.describe().c_str());
    return g;
}

Graph
loadDataset(const std::string &name, const DatasetScale &scale,
            uint64_t seed)
{
    return loadDataset(datasetInfoByName(name).id, scale, seed);
}

std::string
RmatSpec::canonical() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "rmat:scale=%d,ef=%lld,seed=%llu,flen=%lld", scale,
                  static_cast<long long>(edgeFactor),
                  static_cast<unsigned long long>(seed),
                  static_cast<long long>(featureLen));
    return buf;
}

bool
isRmatDataset(const std::string &dataset)
{
    return startsWith(dataset, "rmat:");
}

RmatSpec
parseRmatSpec(const std::string &dataset)
{
    if (!isRmatDataset(dataset))
        fatal("not an rmat dataset spec: '%s'", dataset.c_str());
    RmatSpec spec;
    for (const std::string &part : split(dataset.substr(5), ',')) {
        const size_t eq = part.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("rmat spec expects key=value parts "
                  "(rmat:scale=S,ef=E,seed=K[,flen=F]), got '%s'",
                  part.c_str());
        const std::string key = toLower(trim(part.substr(0, eq)));
        int64_t value;
        if (!parseInt(trim(part.substr(eq + 1)), value))
            fatal("rmat spec key '%s' expects an integer, got '%s'",
                  key.c_str(), part.substr(eq + 1).c_str());
        if (key == "scale") {
            if (value < 4 || value > 30)
                fatal("rmat scale must be in [4, 30], got %lld",
                      static_cast<long long>(value));
            spec.scale = static_cast<int>(value);
        } else if (key == "ef") {
            if (value < 1)
                fatal("rmat ef (edge factor) must be >= 1");
            spec.edgeFactor = value;
        } else if (key == "seed") {
            if (value < 0)
                fatal("rmat seed must be >= 0");
            spec.seed = static_cast<uint64_t>(value);
        } else if (key == "flen") {
            if (value < 1)
                fatal("rmat flen must be >= 1");
            spec.featureLen = value;
        } else {
            fatal("unknown rmat spec key '%s' (known: scale, ef, "
                  "seed, flen)",
                  key.c_str());
        }
    }
    return spec;
}

Graph
loadRmatDataset(const RmatSpec &spec, const DatasetScale &scale)
{
    const int64_t nodes = std::max<int64_t>(
        16, spec.nodes() / std::max<int64_t>(1, scale.nodeDivisor));
    const int64_t edges = std::max<int64_t>(
        16, spec.edges() / std::max<int64_t>(1, scale.edgeDivisor));
    int64_t flen = spec.featureLen;
    if (scale.featureCap > 0)
        flen = std::min(flen, scale.featureCap);

    // Purely spec-seeded: the user-level run seed must not leak in,
    // or the "same spec, same graph" contract breaks.
    Rng rng(spec.seed * 0x100000001b3ULL + 0x524d4154ULL);

    RmatParams params;
    params.nodes = nodes;
    params.edges = edges;
    params.dedup = edges < 20'000'000;

    Graph g = generateRmat(params, rng);
    fillFeatures(g, flen, rng);
    g.name = spec.canonical();
    g.checkInvariants();
    informVerbose("generated %s (%s)", g.summary().c_str(),
                  scale.describe().c_str());
    return g;
}

std::vector<std::string>
splitDatasetList(const std::string &list)
{
    std::vector<std::string> out;
    for (const std::string &tok : split(list, ',')) {
        // A bare "key=value" token is the continuation of a spec
        // entry ("rmat:scale=16,ef=8,..."), not a dataset name.
        if (!out.empty() && tok.find('=') != std::string::npos &&
            tok.find(':') == std::string::npos &&
            out.back().find(':') != std::string::npos)
            out.back() += "," + tok;
        else
            out.push_back(tok);
    }
    return out;
}

} // namespace gsuite
