#include "core/factory.h"

#include <algorithm>
#include <set>
#include <thread>

#include "bridge/bridged_hnsw.h"
#include "bridge/bridged_ivf_flat.h"
#include "faisslike/flat_index.h"
#include "faisslike/hnsw.h"
#include "faisslike/ivf_flat.h"
#include "faisslike/ivf_pq.h"
#include "faisslike/ivf_sq8.h"
#include "pase/hnsw.h"
#include "pase/ivf_flat.h"
#include "pase/ivf_pq.h"
#include "pase/ivf_sq8.h"

namespace vecdb {

namespace {
double OptionOr(const std::map<std::string, double>& options,
                const std::string& key, double fallback) {
  auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

Status ValidateOptionKeys(const std::map<std::string, double>& options) {
  static const std::set<std::string> kKnown = {
      "clusters", "sample_ratio", "iterations",    "m",   "pq_codes",
      "bnn",      "efb",          "refine_factor", "seed"};
  for (const auto& [key, _] : options) {
    if (kKnown.count(key) == 0) {
      return Status::InvalidArgument("unknown index option '" + key + "'");
    }
  }
  return Status::OK();
}
}  // namespace

Result<std::unique_ptr<VectorIndex>> CreateIndex(const IndexSpec& spec,
                                                 pase::PaseEnv env) {
  if (spec.dim == 0) {
    return Status::InvalidArgument("IndexSpec.dim must be set");
  }
  VECDB_RETURN_NOT_OK(ValidateOptionKeys(spec.options));
  const auto& opt = spec.options;
  const uint32_t clusters =
      static_cast<uint32_t>(OptionOr(opt, "clusters", 256));
  const double sr = OptionOr(opt, "sample_ratio", 0.01);
  const int iters = static_cast<int>(OptionOr(opt, "iterations", 10));
  const uint32_t m = static_cast<uint32_t>(OptionOr(opt, "m", 16));
  const uint32_t cpq = static_cast<uint32_t>(OptionOr(opt, "pq_codes", 256));
  const uint32_t bnn = static_cast<uint32_t>(OptionOr(opt, "bnn", 16));
  const uint32_t efb = static_cast<uint32_t>(OptionOr(opt, "efb", 40));
  const uint32_t refine =
      static_cast<uint32_t>(OptionOr(opt, "refine_factor", 0));
  const uint64_t seed = static_cast<uint64_t>(OptionOr(opt, "seed", 42));

  // Faiss encodes on every core (RC#3); the faisslike IVF builds fan their
  // encoding out over this many workers. Assignment, k-means and PQ
  // training stay on one thread, as do PASE builds.
  const int build_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  const bool needs_env = spec.engine == "pase" || spec.engine == "bridge";
  if (needs_env && !env.valid()) {
    return Status::InvalidArgument("engine '" + spec.engine +
                                   "' requires a PaseEnv (smgr + bufmgr)");
  }

  if (spec.engine == "faiss") {
    if (spec.method == "flat") {
      return std::unique_ptr<VectorIndex>(new faisslike::FlatIndex(spec.dim));
    }
    if (spec.method == "ivfflat") {
      faisslike::IvfFlatOptions o;
      o.num_clusters = clusters;
      o.sample_ratio = sr;
      o.train_iterations = iters;
      o.seed = seed;
      o.num_threads = build_threads;
      return std::unique_ptr<VectorIndex>(
          new faisslike::IvfFlatIndex(spec.dim, o));
    }
    if (spec.method == "ivfpq") {
      faisslike::IvfPqOptions o;
      o.num_clusters = clusters;
      o.pq_m = m;
      o.pq_codes = cpq;
      o.sample_ratio = sr;
      o.train_iterations = iters;
      o.refine_factor = refine;
      o.seed = seed;
      o.num_threads = build_threads;
      return std::unique_ptr<VectorIndex>(
          new faisslike::IvfPqIndex(spec.dim, o));
    }
    if (spec.method == "ivfsq8") {
      faisslike::IvfSq8Options o;
      o.num_clusters = clusters;
      o.sample_ratio = sr;
      o.train_iterations = iters;
      o.seed = seed;
      return std::unique_ptr<VectorIndex>(
          new faisslike::IvfSq8Index(spec.dim, o));
    }
    if (spec.method == "hnsw") {
      faisslike::HnswOptions o;
      o.bnn = bnn;
      o.efb = efb;
      o.seed = seed;
      return std::unique_ptr<VectorIndex>(
          new faisslike::HnswIndex(spec.dim, o));
    }
  } else if (spec.engine == "pase") {
    if (spec.method == "ivfflat") {
      pase::PaseIvfFlatOptions o;
      o.num_clusters = clusters;
      o.sample_ratio = sr;
      o.train_iterations = iters;
      o.seed = seed;
      o.rel_prefix = spec.rel_prefix;
      return std::unique_ptr<VectorIndex>(
          new pase::PaseIvfFlatIndex(env, spec.dim, o));
    }
    if (spec.method == "ivfpq") {
      pase::PaseIvfPqOptions o;
      o.num_clusters = clusters;
      o.pq_m = m;
      o.pq_codes = cpq;
      o.sample_ratio = sr;
      o.train_iterations = iters;
      o.seed = seed;
      o.rel_prefix = spec.rel_prefix;
      return std::unique_ptr<VectorIndex>(
          new pase::PaseIvfPqIndex(env, spec.dim, o));
    }
    if (spec.method == "ivfsq8") {
      pase::PaseIvfSq8Options o;
      o.num_clusters = clusters;
      o.sample_ratio = sr;
      o.train_iterations = iters;
      o.seed = seed;
      o.rel_prefix = spec.rel_prefix;
      return std::unique_ptr<VectorIndex>(
          new pase::PaseIvfSq8Index(env, spec.dim, o));
    }
    if (spec.method == "hnsw") {
      pase::PaseHnswOptions o;
      o.bnn = bnn;
      o.efb = efb;
      o.seed = seed;
      o.rel_prefix = spec.rel_prefix;
      return std::unique_ptr<VectorIndex>(
          new pase::PaseHnswIndex(env, spec.dim, o));
    }
  } else if (spec.engine == "bridge") {
    if (spec.method == "ivfflat") {
      bridge::BridgedIvfFlatOptions o;
      o.num_clusters = clusters;
      o.sample_ratio = sr;
      o.train_iterations = iters;
      o.seed = seed;
      o.rel_prefix = spec.rel_prefix;
      return std::unique_ptr<VectorIndex>(
          new bridge::BridgedIvfFlatIndex(env, spec.dim, o));
    }
    if (spec.method == "hnsw") {
      bridge::BridgedHnswOptions o;
      o.bnn = bnn;
      o.efb = efb;
      o.seed = seed;
      o.rel_prefix = spec.rel_prefix;
      return std::unique_ptr<VectorIndex>(
          new bridge::BridgedHnswIndex(env, spec.dim, o));
    }
    return Status::NotSupported("bridge engine supports ivfflat and hnsw");
  } else {
    return Status::InvalidArgument("unknown engine '" + spec.engine +
                                   "' (use faiss, pase, or bridge)");
  }
  return Status::InvalidArgument("unknown index method '" + spec.method +
                                 "' for engine '" + spec.engine + "'");
}

}  // namespace vecdb
