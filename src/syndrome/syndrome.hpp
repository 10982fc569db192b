#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/powerlaw.hpp"
#include "common/rng.hpp"
#include "isa/isa.hpp"
#include "rtl/state.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"

namespace gpufi::syndrome {

/// Key of a syndrome distribution: the paper selects the error to inject
/// based on the corrupted module, the instruction opcode, and the operand
/// magnitude range; schema v2 additionally keys by the RTL fault model, so
/// stuck-at and transient syndromes of the same site stay separate classes.
struct Key {
  rtl::Module module = rtl::Module::Fp32Fu;
  isa::Opcode op = isa::Opcode::FADD;
  rtlfi::InputRange range = rtlfi::InputRange::Medium;
  rtl::FaultModel model = rtl::FaultModel::Transient;

  auto operator<=>(const Key&) const = default;
};

/// Thrown when a database file's schema version does not match
/// Database::kSchemaVersion. A stale incompatible file must hard-error
/// (the CLI maps this to exit code 2), never be silently reinterpreted.
class SchemaMismatch : public std::runtime_error {
 public:
  SchemaMismatch(int found, int expected);
  int found() const { return found_; }

 private:
  int found_;
};

/// Distribution of the relative error a fault imposes on one instruction's
/// output (one cell of Figures 5/6). Holds the raw samples (capped), a
/// decade histogram of them for rendering, and the fitted power law used by
/// Eq. (1).
class Dist {
 public:
  Dist() : hist_(-8, 3, 1) {}

  /// Records one observed relative error.
  void add(double rel_error);

  /// Number of recorded syndromes.
  std::size_t count() const { return n_; }
  /// Median relative error.
  double median() const;
  /// Histogram of the kept samples over decades 1e-8..1e3 (Fig. 5/6
  /// rendering).
  const LogHistogram& histogram() const { return hist_; }
  /// Raw samples (capped at kMaxSamples).
  const std::vector<double>& samples() const { return samples_; }

  /// Fits (or re-fits) the power law; returns false when the data does not
  /// admit a fit (too few samples), in which case sampling falls back to
  /// the empirical histogram.
  bool fit();
  const std::optional<PowerLaw>& power_law() const { return fit_; }

  /// Shapiro-Wilk p-value on the samples (the paper: always < 0.05, i.e.
  /// syndromes are decisively non-Gaussian).
  double shapiro_p() const;

  /// Draws one relative error: Eq. (1) of the paper when a power law is
  /// fitted, the empirical histogram otherwise. Returns 0 when empty.
  double sample(Rng& rng) const;

  /// Cap on raw samples retained per distribution.
  static constexpr std::size_t kMaxSamples = 50000;

  /// The distribution of `count` syndromes whose kept samples are
  /// `samples` (what count() and samples() read), unfitted. nullopt unless
  /// `samples` is what add() keeps of `count` syndromes: min(count,
  /// kMaxSamples) of them, none of which add() would drop.
  static std::optional<Dist> restore(std::size_t count,
                                     const std::vector<double>& samples);

 private:
  std::size_t n_ = 0;
  std::vector<double> samples_;
  LogHistogram hist_;
  std::optional<PowerLaw> fit_;
};

// ---------------------------------------------------------------------------
// t-MxM spatial error patterns (Fig. 8 / Table II).
// ---------------------------------------------------------------------------

/// Geometric classes of multi-element corruption in a tile output.
enum class Pattern : std::uint8_t {
  Single = 0,  ///< one corrupted element (not listed in Table II)
  Row,         ///< all corrupted elements share a row
  Col,         ///< all share a column
  RowCol,      ///< a row plus a column
  Block,       ///< a contiguous rectangular block
  Random,      ///< scattered with no structure
  All,         ///< (almost) every element corrupted
};

constexpr std::size_t kNumPatterns = 7;

/// Pattern name ("row", "block", ...).
std::string_view pattern_name(Pattern p);

/// Classifies the corrupted element indices of a rows x cols tile.
Pattern classify_pattern(const std::vector<std::uint32_t>& indices,
                         unsigned rows, unsigned cols);

/// Statistics of the t-MxM characterization for one injection site
/// (scheduler or pipeline): pattern frequencies plus the relative-error
/// distributions needed to reproduce the corruption in software.
struct TilePatternStats {
  std::array<std::size_t, kNumPatterns> counts{};
  /// Max relative error per SDC record ("range" selector of Sec. V-D).
  Dist record_max;
  /// Per-element relative errors.
  Dist elements;

  std::size_t total() const;
  /// Fraction of multi-element records in pattern p (Table II rows; the
  /// Single column is excluded from the denominator as in the paper).
  double multi_fraction(Pattern p) const;
};

/// One sampled tile-corruption plan (consumed by the CNN injector).
struct TileCorruption {
  Pattern pattern = Pattern::Single;
  /// Element (row, col, relative_error) triples within a rows x cols tile.
  struct Element {
    unsigned row, col;
    double rel_error;
  };
  std::vector<Element> elements;
};

// ---------------------------------------------------------------------------
// The database.
// ---------------------------------------------------------------------------

/// The RTL fault-syndrome database — the artifact the paper publishes:
/// relative-error distributions per (module, opcode, input range), plus the
/// t-MxM spatial pattern statistics per injection site.
class Database {
 public:
  Database() = default;
  /// A copy re-indexes its own distributions; a move keeps the map nodes
  /// the index points at, and leaves a source fit only to be assigned or
  /// destroyed.
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Ingests the SDC records of a micro-benchmark campaign.
  void add_campaign(const Key& key, const rtlfi::CampaignResult& result);

  /// Ingests a t-MxM campaign (site must be Scheduler or PipelineRegs).
  void add_tmxm_campaign(rtl::Module site, unsigned rows, unsigned cols,
                         const rtlfi::CampaignResult& result);

  /// Fits every distribution's power law; call once after ingestion.
  void finalize();

  /// Distribution for an exact key, or nullptr.
  const Dist* find(const Key& key) const;

  /// Samples a relative error for (op, range) pooling all modules, weighted
  /// by their observed SDC counts — the paper's "cocktail of fault
  /// syndromes". `model` selects the fault-model syndrome class; when that
  /// class was never characterized for the opcode, sampling falls back to
  /// the transient class (documented fallback: the transient grid is always
  /// built first and most densely). Returns nullopt if the opcode was never
  /// characterized at all. A table lookup plus one weighted pick: the pools
  /// are indexed when the distributions change, not per draw.
  std::optional<double> sample_relative_error(
      isa::Opcode op, rtlfi::InputRange range, Rng& rng,
      rtl::FaultModel model = rtl::FaultModel::Transient) const;

  /// t-MxM pattern statistics per site.
  const TilePatternStats& tmxm(rtl::Module site) const;
  TilePatternStats& tmxm_mutable(rtl::Module site);

  /// Samples a tile corruption: pattern by observed frequency (including
  /// Single), geometry uniformly within the tile, per-element relative
  /// errors via the two-level power-law scheme of Sec. V-D.
  TileCorruption sample_tile_corruption(unsigned rows, unsigned cols,
                                        Rng& rng) const;

  /// All keys present (deterministic order).
  std::vector<Key> keys() const;

  /// On-disk schema version written/required by save/load. v2 added the
  /// fault-model column to every distribution key.
  static constexpr int kSchemaVersion = 2;

  /// Plain-text (de)serialization of the whole database. load throws
  /// std::runtime_error on garbage and SchemaMismatch on a well-formed
  /// header with the wrong version.
  void save(std::ostream& os) const;
  static Database load(std::istream& is);
  void save_file(const std::string& path) const;
  static Database load_file(const std::string& path);

 private:
  /// The nonempty distributions of one (op, range, model), in key (module)
  /// order, and the sum of their counts: what one draw picks from.
  struct Pool {
    std::vector<const Dist*> dists;
    std::size_t total = 0;
  };
  static constexpr std::size_t kNumPools =
      isa::kNumOpcodes * rtlfi::kNumRanges * rtl::kNumFaultModels;

  static std::size_t pool_index(isa::Opcode op, rtlfi::InputRange range,
                                rtl::FaultModel model);
  /// Rebuilds pools_ from dists_; called by everything that adds a
  /// distribution or a sample (fit() moves and resizes none).
  void reindex();

  std::map<Key, Dist> dists_;
  std::array<Pool, kNumPools> pools_;
  TilePatternStats tmxm_scheduler_;
  TilePatternStats tmxm_pipeline_;
};

}  // namespace gpufi::syndrome
