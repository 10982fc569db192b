#include "syndrome/syndrome.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/kv.hpp"
#include "common/statistics.hpp"
#include "obs/metrics.hpp"

namespace gpufi::syndrome {

SchemaMismatch::SchemaMismatch(int found, int expected)
    : std::runtime_error("syndrome db: schema version " +
                         std::to_string(found) + ", expected " +
                         std::to_string(expected) +
                         " — regenerate with `gpufi build-db`"),
      found_(found) {}

void Dist::add(double rel_error) {
  if (!(rel_error > 0.0) || !std::isfinite(rel_error)) {
    // Zero/invalid relative errors carry no syndrome information.
    return;
  }
  ++n_;
  // The histogram counts the kept samples only: it is a function of what
  // save() writes, so a loaded distribution renders and samples alike.
  if (samples_.size() < kMaxSamples) {
    samples_.push_back(rel_error);
    hist_.add(rel_error);
  }
}

std::optional<Dist> Dist::restore(std::size_t count,
                                  const std::vector<double>& samples) {
  if (samples.size() != std::min(count, kMaxSamples)) return std::nullopt;
  Dist d;
  for (const double s : samples) d.add(s);
  if (d.n_ != samples.size()) return std::nullopt;
  d.n_ = count;
  return d;
}

double Dist::median() const { return stats::median(samples_); }

bool Dist::fit() {
  fit_.reset();
  try {
    fit_ = fit_power_law(samples_);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

double Dist::shapiro_p() const {
  if (samples_.size() < 8) return 1.0;
  // Test at most 4000 samples (Royston's approximation is rated to n=5000).
  std::span<const double> s(samples_.data(),
                            std::min<std::size_t>(samples_.size(), 4000));
  return stats::shapiro_wilk(s).p_value;
}

double Dist::sample(Rng& rng) const {
  if (n_ == 0) return 0.0;
  if (fit_) {
    // Eq. (1): x = x_min * (1 - r)^(-1 / (alpha - 1)).
    return fit_->sample(rng);
  }
  return hist_.sample(rng);
}

std::string_view pattern_name(Pattern p) {
  switch (p) {
    case Pattern::Single: return "single";
    case Pattern::Row: return "row";
    case Pattern::Col: return "col";
    case Pattern::RowCol: return "row+col";
    case Pattern::Block: return "block";
    case Pattern::Random: return "rand";
    case Pattern::All: return "all";
  }
  return "?";
}

Pattern classify_pattern(const std::vector<std::uint32_t>& indices,
                         unsigned rows, unsigned cols) {
  if (indices.empty() || rows == 0 || cols == 0) return Pattern::Single;
  if (indices.size() == 1) return Pattern::Single;
  std::set<unsigned> rset, cset;
  unsigned rmin = rows, rmax = 0, cmin = cols, cmax = 0;
  for (auto idx : indices) {
    const unsigned r = idx / cols, c = idx % cols;
    rset.insert(r);
    cset.insert(c);
    rmin = std::min(rmin, r);
    rmax = std::max(rmax, r);
    cmin = std::min(cmin, c);
    cmax = std::max(cmax, c);
  }
  const std::size_t n = indices.size();
  if (n + 2 >= static_cast<std::size_t>(rows) * cols) return Pattern::All;
  if (rset.size() == 1) return Pattern::Row;
  if (cset.size() == 1) return Pattern::Col;
  // Row+column: every element lies on one specific row or one specific
  // column, and both carry at least two elements.
  for (unsigned r : rset) {
    for (unsigned c : cset) {
      std::size_t on_r = 0, on_c = 0;
      bool outside = false;
      for (auto idx : indices) {
        const unsigned ir = idx / cols, ic = idx % cols;
        if (ir == r) ++on_r;
        if (ic == c) ++on_c;
        if (ir != r && ic != c) outside = true;
      }
      if (!outside && on_r >= 2 && on_c >= 2) return Pattern::RowCol;
    }
  }
  // Block: a filled bounding rectangle (taller and wider than one line).
  const std::size_t area =
      static_cast<std::size_t>(rmax - rmin + 1) * (cmax - cmin + 1);
  if (area == n) return Pattern::Block;
  return Pattern::Random;
}

std::size_t TilePatternStats::total() const {
  std::size_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

double TilePatternStats::multi_fraction(Pattern p) const {
  std::size_t multi = 0;
  for (std::size_t i = 1; i < kNumPatterns; ++i) multi += counts[i];
  if (multi == 0 || p == Pattern::Single) return 0.0;
  return static_cast<double>(counts[static_cast<std::size_t>(p)]) /
         static_cast<double>(multi);
}

Database::Database(const Database& other)
    : dists_(other.dists_),
      tmxm_scheduler_(other.tmxm_scheduler_),
      tmxm_pipeline_(other.tmxm_pipeline_) {
  reindex();
}

Database& Database::operator=(const Database& other) {
  return *this = Database(other);
}

void Database::add_campaign(const Key& key,
                            const rtlfi::CampaignResult& result) {
  Dist& d = dists_[key];
  for (const auto& rec : result.records) {
    if (rec.outcome != rtlfi::Outcome::Sdc) continue;
    for (const auto& diff : rec.diffs) d.add(diff.rel_error);
  }
  reindex();
}

void Database::add_tmxm_campaign(rtl::Module site, unsigned rows,
                                 unsigned cols,
                                 const rtlfi::CampaignResult& result) {
  TilePatternStats& s = tmxm_mutable(site);
  for (const auto& rec : result.records) {
    if (rec.outcome != rtlfi::Outcome::Sdc) continue;
    std::vector<std::uint32_t> indices;
    double max_rel = 0.0;
    for (const auto& diff : rec.diffs) {
      indices.push_back(diff.index);
      s.elements.add(diff.rel_error);
      if (std::isfinite(diff.rel_error)) max_rel = std::max(max_rel, diff.rel_error);
    }
    const Pattern p = classify_pattern(indices, rows, cols);
    ++s.counts[static_cast<std::size_t>(p)];
    s.record_max.add(max_rel);
  }
}

void Database::finalize() {
  for (auto& [key, dist] : dists_) dist.fit();
  tmxm_scheduler_.elements.fit();
  tmxm_scheduler_.record_max.fit();
  tmxm_pipeline_.elements.fit();
  tmxm_pipeline_.record_max.fit();
}

const Dist* Database::find(const Key& key) const {
  const auto it = dists_.find(key);
  return it == dists_.end() ? nullptr : &it->second;
}

std::size_t Database::pool_index(isa::Opcode op, rtlfi::InputRange range,
                                 rtl::FaultModel model) {
  return (static_cast<std::size_t>(op) * rtlfi::kNumRanges +
          static_cast<std::size_t>(range)) *
             rtl::kNumFaultModels +
         static_cast<std::size_t>(model);
}

void Database::reindex() {
  for (Pool& p : pools_) p = Pool{};
  // Keys order by module first, so the map meets each (op, range, model)'s
  // distributions in module order: a pool lists its modules in the order a
  // walk of the whole map would, and a draw maps rng.below(total) to the
  // same distribution as that walk.
  for (const auto& [key, dist] : dists_) {
    if (dist.count() == 0) continue;
    Pool& p = pools_[pool_index(key.op, key.range, key.model)];
    p.dists.push_back(&dist);
    p.total += dist.count();
  }
}

std::optional<double> Database::sample_relative_error(
    isa::Opcode op, rtlfi::InputRange range, Rng& rng,
    rtl::FaultModel model) const {
  // Pool modules for this (op, range, model), weighted by observed SDC
  // counts. When the requested fault-model class was never characterized
  // for this opcode, fall back to the transient class — the transient grid
  // is always built first and most densely.
  const Pool* p = &pools_[pool_index(op, range, model)];
  if (p->total == 0 && model != rtl::FaultModel::Transient) {
    obs::count("gpufi_syndrome_transient_fallback_total");
    p = &pools_[pool_index(op, range, rtl::FaultModel::Transient)];
  }
  if (p->total == 0) {
    obs::count("gpufi_syndrome_sample_miss_total");
    return std::nullopt;
  }
  auto d = p->dists.begin();
  for (std::size_t target = rng.below(p->total); target >= (*d)->count();
       ++d)
    target -= (*d)->count();
  return (*d)->sample(rng);
}

const TilePatternStats& Database::tmxm(rtl::Module site) const {
  return site == rtl::Module::Scheduler ? tmxm_scheduler_ : tmxm_pipeline_;
}
TilePatternStats& Database::tmxm_mutable(rtl::Module site) {
  return site == rtl::Module::Scheduler ? tmxm_scheduler_ : tmxm_pipeline_;
}

TileCorruption Database::sample_tile_corruption(unsigned rows, unsigned cols,
                                                Rng& rng) const {
  TileCorruption out;
  // Pick the injection site by its SDC mass, then the pattern by observed
  // frequency at that site.
  const TilePatternStats* site = &tmxm_scheduler_;
  const std::size_t tot_s = tmxm_scheduler_.total();
  const std::size_t tot_p = tmxm_pipeline_.total();
  if (tot_s + tot_p == 0) {
    // Untrained database: a single-element corruption with a fixed error.
    out.pattern = Pattern::Single;
    out.elements.push_back({0, 0, 1.0});
    return out;
  }
  if (rng.below(tot_s + tot_p) >= tot_s) site = &tmxm_pipeline_;

  std::size_t target = rng.below(site->total());
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < kNumPatterns; ++i) {
    if (target < site->counts[i]) {
      chosen = i;
      break;
    }
    target -= site->counts[i];
  }
  out.pattern = static_cast<Pattern>(chosen);

  // Geometry.
  std::vector<std::pair<unsigned, unsigned>> cells;
  const unsigned r0 = static_cast<unsigned>(rng.below(rows));
  const unsigned c0 = static_cast<unsigned>(rng.below(cols));
  switch (out.pattern) {
    case Pattern::Single:
      cells.push_back({r0, c0});
      break;
    case Pattern::Row:
      for (unsigned c = 0; c < cols; ++c) cells.push_back({r0, c});
      break;
    case Pattern::Col:
      for (unsigned r = 0; r < rows; ++r) cells.push_back({r, c0});
      break;
    case Pattern::RowCol:
      for (unsigned c = 0; c < cols; ++c) cells.push_back({r0, c});
      for (unsigned r = 0; r < rows; ++r)
        if (r != r0) cells.push_back({r, c0});
      break;
    case Pattern::Block: {
      const unsigned h = 2 + static_cast<unsigned>(rng.below(
                                 std::max(1u, rows - 2)));
      const unsigned w = 2 + static_cast<unsigned>(rng.below(
                                 std::max(1u, cols - 2)));
      const unsigned rb = static_cast<unsigned>(
          rng.below(rows - std::min(h, rows) + 1));
      const unsigned cb = static_cast<unsigned>(
          rng.below(cols - std::min(w, cols) + 1));
      for (unsigned r = rb; r < std::min(rows, rb + h); ++r)
        for (unsigned c = cb; c < std::min(cols, cb + w); ++c)
          cells.push_back({r, c});
      break;
    }
    case Pattern::Random: {
      const unsigned n =
          2 + static_cast<unsigned>(rng.below(rows * cols / 4));
      std::set<std::pair<unsigned, unsigned>> uniq;
      while (uniq.size() < n)
        uniq.insert({static_cast<unsigned>(rng.below(rows)),
                     static_cast<unsigned>(rng.below(cols))});
      cells.assign(uniq.begin(), uniq.end());
      break;
    }
    case Pattern::All:
      for (unsigned r = 0; r < rows; ++r)
        for (unsigned c = 0; c < cols; ++c) cells.push_back({r, c});
      break;
  }

  // Two-level relative-error scheme (Sec. V-D): Eq. (1) selects the range
  // (the record's maximum error), a second power-law draw places each
  // element within it.
  const double range_max = std::max(site->record_max.sample(rng), 1e-9);
  for (auto [r, c] : cells) {
    double frac = 1.0;
    if (site->elements.power_law()) {
      const auto& pl = *site->elements.power_law();
      frac = pl.x_min / std::max(pl.sample(rng), pl.x_min);
    } else {
      frac = rng.uniform(0.05, 1.0);
    }
    out.elements.push_back({r, c, range_max * frac});
  }
  return out;
}

std::vector<Key> Database::keys() const {
  std::vector<Key> ks;
  ks.reserve(dists_.size());
  for (const auto& [key, dist] : dists_) ks.push_back(key);
  return ks;
}

// ------------------------------------------------------------ serialization

namespace {

/// Samples use format_double's max_digits10 text, so they survive a save
/// and load bit for bit.
void save_dist(std::ostream& os, const Dist& d) {
  os << d.count() << ' ' << d.samples().size();
  for (double s : d.samples()) os << ' ' << kv::format_double(s);
  os << '\n';
}

/// One "count stored s_1 .. s_stored" line, as save_dist writes it.
Dist load_dist(kv::Cursor& c) {
  kv::Fields f{c.take_line(), &c};
  const auto count = f.next<std::size_t>();
  const auto stored = f.next<std::size_t>();
  if (stored > Dist::kMaxSamples) c.fail("sample count above kMaxSamples");
  std::vector<double> samples;
  for (std::size_t i = 0; c.ok && i < stored; ++i)
    samples.push_back(f.next<double>());
  f.done();
  if (!c.ok) return {};
  auto d = Dist::restore(count, samples);
  if (!d) {
    c.fail("samples are not what add() keeps of the count");
    return {};
  }
  d->fit();
  return std::move(*d);
}

void save_tmxm(std::ostream& os, const TilePatternStats& s) {
  os << "tmxm";
  for (auto c : s.counts) os << ' ' << c;
  os << '\n';
  save_dist(os, s.record_max);
  save_dist(os, s.elements);
}

TilePatternStats load_tmxm(kv::Cursor& c) {
  TilePatternStats s;
  kv::Fields f{c.take_line(), &c};
  if (c.ok && f.next_token() != "tmxm") c.fail("bad tmxm tag");
  for (auto& n : s.counts) n = f.next<std::size_t>();
  f.done();
  s.record_max = load_dist(c);
  s.elements = load_dist(c);
  return s;
}

}  // namespace

void Database::save(std::ostream& os) const {
  os << "gpufi-syndrome-db " << kSchemaVersion << '\n';
  os << dists_.size() << '\n';
  for (const auto& [key, dist] : dists_) {
    os << static_cast<int>(key.module) << ' ' << static_cast<int>(key.op)
       << ' ' << static_cast<int>(key.range) << ' '
       << static_cast<int>(key.model) << '\n';
    save_dist(os, dist);
  }
  save_tmxm(os, tmxm_scheduler_);
  save_tmxm(os, tmxm_pipeline_);
}

Database Database::load(std::istream& is) {
  std::ostringstream text;
  text << is.rdbuf();
  const std::string bytes = text.str();
  kv::Cursor c{bytes};
  kv::Fields header{c.take_line(), &c};
  if (!c.ok || header.next_token() != "gpufi-syndrome-db")
    throw std::runtime_error("syndrome db: bad header");
  const int version = header.next<int>();
  header.done();
  if (!c.ok) throw std::runtime_error("syndrome db: bad header");
  if (version != kSchemaVersion) throw SchemaMismatch(version, kSchemaVersion);

  Database db;
  kv::Fields count{c.take_line(), &c};
  const auto n = count.next<std::size_t>();
  count.done();
  for (std::size_t i = 0; c.ok && i < n; ++i) {
    kv::Fields f{c.take_line(), &c};
    Key key;
    key.module = f.next_enum<rtl::Module>(rtl::kNumModules);
    key.op = f.next_enum<isa::Opcode>(isa::kNumOpcodes);
    key.range = f.next_enum<rtlfi::InputRange>(rtlfi::kNumRanges);
    key.model = f.next_enum<rtl::FaultModel>(rtl::kNumFaultModels);
    f.done();
    Dist d = load_dist(c);
    if (c.ok && !db.dists_.emplace(key, std::move(d)).second)
      c.fail("duplicate key");
  }
  db.tmxm_scheduler_ = load_tmxm(c);
  db.tmxm_pipeline_ = load_tmxm(c);
  if (c.ok && !c.rest.empty()) c.fail("trailing bytes");
  if (!c.ok) throw std::runtime_error("syndrome db: " + c.error);
  db.reindex();
  return db;
}

void Database::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  save(os);
}

Database Database::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  return load(is);
}

}  // namespace gpufi::syndrome
